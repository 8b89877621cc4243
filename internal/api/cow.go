package api

import (
	"cmp"
	"slices"
)

// The snapshot's tables are persistent: a publish copies only the pages or
// blocks a command touched and shares the rest with the previous snapshot,
// the same copy-on-write discipline as the superblock LFT.

// cowPageBits sizes cowArray pages (256 entries).
const cowPageBits = 8

// cowArray is a persistent dense array indexed by a small integer (LID or
// node ID). Absent pages read as fill.
type cowArray[T comparable] struct {
	pages [][]T
	fill  T
}

func newCOWArray[T comparable](fill T) cowArray[T] { return cowArray[T]{fill: fill} }

// get returns entry i (fill when never set or out of range).
func (a cowArray[T]) get(i int) T {
	p := i >> cowPageBits
	if i < 0 || p >= len(a.pages) || a.pages[p] == nil {
		return a.fill
	}
	return a.pages[p][i&(1<<cowPageBits-1)]
}

// each calls fn for every entry that differs from fill, in index order.
func (a cowArray[T]) each(fn func(i int, v T)) {
	for p, page := range a.pages {
		for j, v := range page {
			if v != a.fill {
				fn(p<<cowPageBits|j, v)
			}
		}
	}
}

// cowEdit batches writes to a cowArray: the page index is copied once and
// each touched page once, however many entries of it change.
type cowEdit[T comparable] struct {
	a     cowArray[T]
	owned []bool
	dirty bool
}

func (a cowArray[T]) edit() *cowEdit[T] { return &cowEdit[T]{a: a} }

// set writes entry i; writing the value it already holds copies nothing.
func (e *cowEdit[T]) set(i int, v T) {
	if e.a.get(i) == v {
		return
	}
	p := i >> cowPageBits
	if !e.dirty {
		e.a.pages = slices.Clone(e.a.pages)
		e.owned = make([]bool, len(e.a.pages))
		e.dirty = true
	}
	if p >= len(e.a.pages) {
		e.a.pages = append(e.a.pages, make([][]T, p+1-len(e.a.pages))...)
		e.owned = append(e.owned, make([]bool, p+1-len(e.owned))...)
	}
	if !e.owned[p] {
		page := make([]T, 1<<cowPageBits)
		if old := e.a.pages[p]; old != nil {
			copy(page, old)
		} else if e.a.fill != *new(T) {
			for j := range page {
				page[j] = e.a.fill
			}
		}
		e.a.pages[p] = page
		e.owned[p] = true
	}
	e.a.pages[p][i&(1<<cowPageBits-1)] = v
}

// done returns the edited array (the original when nothing changed).
func (e *cowEdit[T]) done() cowArray[T] { return e.a }

// keyed is an element of a cowList.
type keyed[K cmp.Ordered] interface{ key() K }

// cowBlock is the target block length of a cowList; a block splits when it
// outgrows twice this.
const cowBlock = 64

// cowList is a persistent sequence sorted by key, held in blocks: a lookup
// is two binary searches, and set or del copies one block and the block
// index.
type cowList[K cmp.Ordered, V keyed[K]] struct {
	blocks [][]V // non-empty, ascending
	n      int
}

// cowListOf builds a list from elements already sorted by key.
func cowListOf[K cmp.Ordered, V keyed[K]](sorted []V) cowList[K, V] {
	l := cowList[K, V]{n: len(sorted)}
	for len(sorted) > 0 {
		k := min(cowBlock, len(sorted))
		l.blocks = append(l.blocks, slices.Clone(sorted[:k]))
		sorted = sorted[k:]
	}
	return l
}

func (l cowList[K, V]) len() int { return l.n }

// locate returns the block that holds or would hold k and k's position in
// it.
func (l cowList[K, V]) locate(k K) (b, i int, found bool) {
	b = blockOf(l.blocks, k)
	if b == len(l.blocks) {
		return b - 1, len(l.blocks[b-1]), false
	}
	i, found = slices.BinarySearchFunc(l.blocks[b], k, func(v V, k K) int { return cmp.Compare(v.key(), k) })
	return b, i, found
}

// blockOf returns the first block whose last key is >= k.
func blockOf[K cmp.Ordered, V keyed[K]](blocks [][]V, k K) int {
	b, _ := slices.BinarySearchFunc(blocks, k, func(blk []V, k K) int { return cmp.Compare(blk[len(blk)-1].key(), k) })
	return b
}

// get returns the element with key k.
func (l cowList[K, V]) get(k K) (V, bool) {
	var zero V
	if l.n == 0 {
		return zero, false
	}
	b, i, ok := l.locate(k)
	if !ok {
		return zero, false
	}
	return l.blocks[b][i], true
}

// set returns the list with v inserted, or replacing the element with its
// key.
func (l cowList[K, V]) set(v V) cowList[K, V] {
	if l.n == 0 {
		return cowList[K, V]{blocks: [][]V{{v}}, n: 1}
	}
	b, i, found := l.locate(v.key())
	blk := l.blocks[b]
	var nb []V
	if found {
		nb = slices.Clone(blk)
		nb[i] = v
	} else {
		nb = make([]V, 0, len(blk)+1)
		nb = append(append(append(nb, blk[:i]...), v), blk[i:]...)
		l.n++
	}
	if len(nb) > 2*cowBlock {
		l.blocks = slices.Insert(slices.Clone(l.blocks), b+1, nb[cowBlock:])
		nb = nb[:cowBlock:cowBlock]
	} else {
		l.blocks = slices.Clone(l.blocks)
	}
	l.blocks[b] = nb
	return l
}

// del returns the list without the element with key k.
func (l cowList[K, V]) del(k K) cowList[K, V] {
	if l.n == 0 {
		return l
	}
	b, i, found := l.locate(k)
	if !found {
		return l
	}
	l.n--
	if len(l.blocks[b]) == 1 {
		l.blocks = slices.Delete(slices.Clone(l.blocks), b, b+1)
		return l
	}
	l.blocks = slices.Clone(l.blocks)
	l.blocks[b] = slices.Delete(slices.Clone(l.blocks[b]), i, i+1)
	return l
}

// all returns a fresh slice of every element in key order (nil when empty).
func (l cowList[K, V]) all() []V {
	if l.n == 0 {
		return nil
	}
	out := make([]V, 0, l.n)
	for _, blk := range l.blocks {
		out = append(out, blk...)
	}
	return out
}
