package ib

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLIDRanges(t *testing.T) {
	cases := []struct {
		lid       LID
		unicast   bool
		multicast bool
	}{
		{LIDUnassigned, false, false},
		{MinUnicastLID, true, false},
		{0x1234, true, false},
		{MaxUnicastLID, true, false},
		{0xC000, false, true},
		{0xFFFE, false, true},
		{PermissiveLID, false, false},
	}
	for _, c := range cases {
		if got := c.lid.IsUnicast(); got != c.unicast {
			t.Errorf("LID %#x IsUnicast = %v, want %v", uint16(c.lid), got, c.unicast)
		}
		if got := c.lid.IsMulticast(); got != c.multicast {
			t.Errorf("LID %#x IsMulticast = %v, want %v", uint16(c.lid), got, c.multicast)
		}
	}
}

func TestUnicastLIDCount(t *testing.T) {
	// The paper: "only 49151 (0x0001-0xBFFF) can be used as unicast".
	if UnicastLIDCount != 49151 {
		t.Fatalf("UnicastLIDCount = %d, want 49151", UnicastLIDCount)
	}
}

func TestGIDString(t *testing.T) {
	g := MakeGID(DefaultGIDPrefix, 0x0002c90300a1beef)
	want := "fe80:0000:0000:0000:0002:c903:00a1:beef"
	if got := g.String(); got != want {
		t.Errorf("GID.String() = %q, want %q", got, want)
	}
}

func TestGUIDString(t *testing.T) {
	if got := GUID(0xdeadbeef).String(); got != "0x00000000deadbeef" {
		t.Errorf("GUID.String() = %q", got)
	}
}

func TestNodeTypeString(t *testing.T) {
	if NodeCA.String() != "CA" || NodeSwitch.String() != "Switch" || NodeRouter.String() != "Router" {
		t.Error("NodeType.String mismatch")
	}
	if NodeType(9).String() != "NodeType(9)" {
		t.Error("unknown NodeType.String mismatch")
	}
}

func TestBlockOf(t *testing.T) {
	cases := []struct {
		lid  LID
		want int
	}{
		{0, 0}, {1, 0}, {63, 0}, {64, 1}, {127, 1}, {128, 2}, {49151, 767},
	}
	for _, c := range cases {
		if got := BlockOf(c.lid); got != c.want {
			t.Errorf("BlockOf(%d) = %d, want %d", c.lid, got, c.want)
		}
	}
}

func TestMinBlocksForDenseLIDs(t *testing.T) {
	// Table I of the paper: LIDs consumed -> min LFT blocks per switch.
	cases := []struct {
		lids, blocks int
	}{
		{360, 6}, {702, 11}, {6804, 107}, {13284, 208},
		{0, 0}, {1, 1}, {63, 1}, {64, 2}, {65, 2}, {49151, 768},
	}
	for _, c := range cases {
		if got := MinBlocksForDenseLIDs(c.lids); got != c.blocks {
			t.Errorf("MinBlocksForDenseLIDs(%d) = %d, want %d", c.lids, got, c.blocks)
		}
	}
}

func TestLFTBasic(t *testing.T) {
	lft := NewLFT(100)
	if lft.NumBlocks() != 2 {
		t.Fatalf("NumBlocks = %d, want 2", lft.NumBlocks())
	}
	if lft.Get(5) != DropPort {
		t.Error("fresh LFT entry should be DropPort")
	}
	lft.Set(5, 3)
	if lft.Get(5) != 3 {
		t.Error("Set/Get mismatch")
	}
	if got := lft.DirtyBlocks(); len(got) != 1 || got[0] != 0 {
		t.Errorf("DirtyBlocks = %v, want [0]", got)
	}
	lft.ClearDirty()
	if lft.DirtyBlockCount() != 0 {
		t.Error("ClearDirty did not clear")
	}
	// Setting the same value again must not re-dirty the block.
	lft.Set(5, 3)
	if lft.DirtyBlockCount() != 0 {
		t.Error("idempotent Set dirtied a block")
	}
}

func TestLFTGrowth(t *testing.T) {
	lft := NewLFT(10)
	lft.Set(500, 7)
	if lft.Get(500) != 7 {
		t.Error("growth lost value")
	}
	if lft.Get(5) != DropPort {
		t.Error("growth corrupted low entries")
	}
	if lft.NumBlocks() != BlockOf(500)+1 {
		t.Errorf("NumBlocks = %d after growth", lft.NumBlocks())
	}
	// Out-of-range reads stay safe.
	if lft.Get(40000) != DropPort {
		t.Error("out-of-range Get should be DropPort")
	}
}

func TestLFTSwapSameBlock(t *testing.T) {
	// Fig. 5: swapping LID 2 and LID 12 touches a single block.
	lft := NewLFT(63)
	lft.Set(2, 2)
	lft.Set(12, 4)
	lft.ClearDirty()
	lft.Swap(2, 12)
	if lft.Get(2) != 4 || lft.Get(12) != 2 {
		t.Fatal("swap did not exchange ports")
	}
	if n := lft.DirtyBlockCount(); n != 1 {
		t.Errorf("swap within one block dirtied %d blocks, want 1", n)
	}
}

func TestLFTSwapAcrossBlocks(t *testing.T) {
	// Paper V-C1: "If the LID of VF3 ... was 64 or greater, then two SMPs
	// would need to be sent as two LFT blocks would have to be updated."
	lft := NewLFT(127)
	lft.Set(2, 2)
	lft.Set(70, 4)
	lft.ClearDirty()
	lft.Swap(2, 70)
	if n := lft.DirtyBlockCount(); n != 2 {
		t.Errorf("cross-block swap dirtied %d blocks, want 2", n)
	}
}

func TestLFTSwapEqualPortsNoDirty(t *testing.T) {
	// Section VI-B: if both LIDs already exit the same port, the switch
	// needs no update at all (n' < n).
	lft := NewLFT(63)
	lft.Set(2, 2)
	lft.Set(6, 2)
	lft.ClearDirty()
	lft.Swap(2, 6)
	if n := lft.DirtyBlockCount(); n != 0 {
		t.Errorf("same-port swap dirtied %d blocks, want 0", n)
	}
}

func TestLFTPopulatedAndTopBlock(t *testing.T) {
	lft := NewLFT(49151)
	if lft.TopPopulatedBlock() != -1 {
		t.Error("empty LFT should have top block -1")
	}
	lft.Set(1, 1)
	lft.Set(2, 1)
	lft.Set(3, 1)
	if got := lft.TopPopulatedBlock(); got != 0 {
		t.Errorf("TopPopulatedBlock = %d, want 0", got)
	}
	// Section VII-C: one node at the topmost LID forces 768 blocks.
	lft.Set(49151, 2)
	if got := lft.TopPopulatedBlock(); got != 767 {
		t.Errorf("TopPopulatedBlock = %d, want 767", got)
	}
	if got := len(lft.PopulatedBlocks()); got != 2 {
		t.Errorf("PopulatedBlocks = %d entries, want 2", got)
	}
}

func TestLFTDiff(t *testing.T) {
	a := NewLFT(200)
	b := NewLFT(200)
	a.Set(1, 1)
	b.Set(1, 1)
	if d := a.Diff(b); len(d) != 0 {
		t.Errorf("identical tables diff = %v", d)
	}
	b.Set(130, 5)
	if d := a.Diff(b); len(d) != 1 || d[0] != 2 {
		t.Errorf("diff = %v, want [2]", d)
	}
	// Different sizes: entries beyond the smaller table are implicit drops.
	c := NewLFT(31)
	c.Set(1, 1)
	if d := a.Diff(c); len(d) != 0 {
		t.Errorf("diff against smaller identical table = %v", d)
	}
}

func TestLFTClone(t *testing.T) {
	a := NewLFT(64)
	a.Set(10, 3)
	c := a.Clone()
	c.Set(10, 4)
	if a.Get(10) != 3 {
		t.Error("Clone shares storage with original")
	}
	if c.Get(10) != 4 {
		t.Error("Clone lost write")
	}
}

func TestLFTString(t *testing.T) {
	a := NewLFT(64)
	a.Set(10, 3)
	if got := a.String(); got != "LFT{blocks=2, populated=1, dirty=1}" {
		t.Errorf("String = %q", got)
	}
}

// Property: Swap is an involution — swapping twice restores the table.
func TestLFTSwapInvolutionProperty(t *testing.T) {
	f := func(a, b uint16, pa, pb uint8) bool {
		la := LID(a%2000) + 1
		lb := LID(b%2000) + 1
		lft := NewLFT(2048)
		lft.Set(la, PortNum(pa))
		lft.Set(lb, PortNum(pb))
		before := [2]PortNum{lft.Get(la), lft.Get(lb)}
		lft.Swap(la, lb)
		lft.Swap(la, lb)
		return lft.Get(la) == before[0] && lft.Get(lb) == before[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: dirty blocks reported by Set are exactly the blocks whose
// contents changed relative to a snapshot.
func TestLFTDirtyMatchesDiffProperty(t *testing.T) {
	f := func(writes []uint32) bool {
		lft := NewLFT(1024)
		snap := lft.Clone()
		lft.ClearDirty()
		for _, w := range writes {
			l := LID(w % 1024)
			if l == 0 {
				l = 1
			}
			p := PortNum(w >> 24)
			lft.Set(l, p)
		}
		dirty := lft.DirtyBlocks()
		diff := lft.Diff(snap)
		// Every diff block must be dirty (dirty may over-approximate when a
		// value is set away and back, which still re-sends the block).
		dset := make(map[int]bool, len(dirty))
		for _, b := range dirty {
			dset[b] = true
		}
		for _, b := range diff {
			if !dset[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestGIDGUIDStringMatchFmt pins the hand-rolled formatters to the fmt
// forms they replace, over edge values and seeded random ones.
func TestGIDGUIDStringMatchFmt(t *testing.T) {
	fmtGUID := func(g GUID) string { return fmt.Sprintf("0x%016x", uint64(g)) }
	fmtGID := func(g GID) string {
		var sb strings.Builder
		p, q := uint64(g.Prefix), uint64(g.GUID)
		for i := 3; i >= 0; i-- {
			fmt.Fprintf(&sb, "%04x:", (p>>(16*i))&0xffff)
		}
		for i := 3; i >= 1; i-- {
			fmt.Fprintf(&sb, "%04x:", (q>>(16*i))&0xffff)
		}
		fmt.Fprintf(&sb, "%04x", q&0xffff)
		return sb.String()
	}
	vals := []uint64{0, 1, 0xf, 0x10, 0xffff, 0x10000, 0x0002c90300a1beef, 0x8000000000000000, ^uint64(0)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		vals = append(vals, rng.Uint64())
	}
	for i, v := range vals {
		g := GUID(v)
		if got, want := g.String(), fmtGUID(g); got != want {
			t.Fatalf("GUID(%#x).String() = %q, want %q", v, got, want)
		}
		gid := GID{Prefix: GIDPrefix(vals[(i+1)%len(vals)]), GUID: g}
		if got, want := gid.String(), fmtGID(gid); got != want {
			t.Fatalf("GID%+v.String() = %q, want %q", gid, got, want)
		}
	}
	if got := MakeGID(DefaultGIDPrefix, 0x0002c90300a1beef).String(); got != "fe80:0000:0000:0000:0002:c903:00a1:beef" {
		t.Fatalf("default-prefix GID = %q", got)
	}
}
