// Package ib defines the core InfiniBand management-plane types used by the
// rest of the simulator: local identifiers (LIDs), globally unique
// identifiers (GUIDs), global identifiers (GIDs), node types, and linear
// forwarding tables (LFTs) organised in 64-entry blocks exactly as the IB
// specification mandates.
//
// The types here are deliberately small and allocation-friendly: the routing
// engines materialise one LFT per switch for subnets of up to 49151 unicast
// LIDs, so LFTs are backed by flat byte slices and block-level dirty
// tracking is kept as a bitmap.
package ib

import (
	"fmt"
)

// LID is a 16-bit InfiniBand local identifier. LID 0 is reserved
// ("unassigned"), 0x0001-0xBFFF are unicast, 0xC000-0xFFFE are multicast and
// 0xFFFF is the permissive LID used by directed-route SMPs.
type LID uint16

const (
	// LIDUnassigned is the reserved zero LID.
	LIDUnassigned LID = 0
	// MinUnicastLID is the first valid unicast LID.
	MinUnicastLID LID = 0x0001
	// MaxUnicastLID is the topmost unicast LID (49151). The number of
	// available unicast addresses defines the maximum size of an IB subnet.
	MaxUnicastLID LID = 0xBFFF
	// PermissiveLID addresses the local port regardless of assigned LID and
	// is used as DLID by directed-route SMPs.
	PermissiveLID LID = 0xFFFF
	// UnicastLIDCount is the number of assignable unicast LIDs.
	UnicastLIDCount = int(MaxUnicastLID-MinUnicastLID) + 1
)

// IsUnicast reports whether l lies in the unicast range.
func (l LID) IsUnicast() bool { return l >= MinUnicastLID && l <= MaxUnicastLID }

// IsMulticast reports whether l lies in the multicast range.
func (l LID) IsMulticast() bool { return l >= 0xC000 && l <= 0xFFFE }

// String renders the LID in decimal, the convention used by OpenSM logs.
func (l LID) String() string { return fmt.Sprintf("%d", uint16(l)) }

// GUID is a 64-bit EUI-64 globally unique identifier. Every physical HCA,
// switch and HCA port carries one assigned by the manufacturer; the SM may
// assign additional subnet-unique (alias/virtual) GUIDs to an HCA port,
// which is how SR-IOV VFs obtain their vGUIDs.
type GUID uint64

// String renders the GUID in the canonical 0x%016x form.
func (g GUID) String() string {
	var b [18]byte
	b[0], b[1] = '0', 'x'
	putHex(b[2:], uint64(g), 16)
	return string(b[:])
}

// putHex writes the low digits*4 bits of v into dst as zero-padded
// lowercase hex.
func putHex(dst []byte, v uint64, digits int) {
	const hex = "0123456789abcdef"
	for i := digits - 1; i >= 0; i-- {
		dst[i] = hex[v&0xf]
		v >>= 4
	}
}

// GIDPrefix is the 64-bit subnet prefix configured by the fabric
// administrator. The default prefix from the IBTA spec is used when none is
// set.
type GIDPrefix uint64

// DefaultGIDPrefix is the IBTA default subnet prefix (fe80::/64).
const DefaultGIDPrefix GIDPrefix = 0xfe80000000000000

// GID is a 128-bit global identifier: a valid IPv6 unicast address formed by
// combining the subnet prefix with a port GUID.
type GID struct {
	Prefix GIDPrefix
	GUID   GUID
}

// MakeGID combines a subnet prefix and a GUID into a GID.
func MakeGID(prefix GIDPrefix, guid GUID) GID { return GID{Prefix: prefix, GUID: guid} }

// String renders the GID as an IPv6-style string, e.g.
// fe80:0000:0000:0000:0002:c903:00a1:beef.
func (g GID) String() string {
	// Eight 16-bit groups of four hex digits, colon separated.
	var b [39]byte
	for i := 0; i < 8; i++ {
		half := uint64(g.Prefix)
		if i >= 4 {
			half = uint64(g.GUID)
		}
		putHex(b[i*5:], half>>(16*(3-i%4)), 4)
		if i < 7 {
			b[i*5+4] = ':'
		}
	}
	return string(b[:])
}

// NodeType discriminates the kinds of nodes visible to the subnet manager.
type NodeType uint8

const (
	// NodeCA is a channel adapter (HCA) endpoint.
	NodeCA NodeType = iota + 1
	// NodeSwitch is a switch.
	NodeSwitch
	// NodeRouter is an inter-subnet router (modelled but unused by the
	// reproduction's experiments).
	NodeRouter
)

// String implements fmt.Stringer.
func (t NodeType) String() string {
	switch t {
	case NodeCA:
		return "CA"
	case NodeSwitch:
		return "Switch"
	case NodeRouter:
		return "Router"
	default:
		return fmt.Sprintf("NodeType(%d)", uint8(t))
	}
}

// PortNum identifies a port on a node. Port 0 is the switch management port
// (the switch itself terminates packets there); ports 1..N are physical.
type PortNum uint8

// DropPort is the conventional "port 255" used to invalidate an LFT entry:
// a switch drops packets forwarded to it. The paper's partially-static
// reconfiguration mitigation (section VI-C) forwards a migrating VM's LID to
// this port while the LFTs are in transition.
const DropPort PortNum = 255

// LFTBlockSize is the number of LID entries carried by one LinearForwarding
// Table MAD: LFTs are read and written in blocks of 64 LIDs, so one SMP
// updates one block on one switch.
const LFTBlockSize = 64

// BlockOf returns the index of the LFT block containing the given LID.
func BlockOf(l LID) int { return int(l) / LFTBlockSize }

// BlocksForLIDCount returns the minimum number of LFT blocks a switch must
// hold to cover LIDs 0..topLID, i.e. ceil((topLID+1)/64). The paper's
// Table I "Min LFT Blocks/Switch" column is ceil(consumedLIDs/64) assuming
// densely packed LIDs starting at 1; that convention is provided by
// MinBlocksForDenseLIDs.
func BlocksForLIDCount(topLID LID) int {
	return (int(topLID) + LFTBlockSize) / LFTBlockSize
}

// MinBlocksForDenseLIDs returns the minimum number of LFT blocks needed when
// n LIDs are densely assigned starting at LID 1: ceil(n/64) blocks cover
// LIDs 0..n (block 0 always exists because LID 0 shares it with LIDs 1-63).
func MinBlocksForDenseLIDs(n int) int {
	if n <= 0 {
		return 0
	}
	// LIDs 1..n plus reserved LID 0 live in blocks 0..n/64.
	return BlockOf(LID(n)) + 1
}
