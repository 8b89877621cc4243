package cloud

import "errors"

// Sentinel errors for the cloud's refusals, matched with errors.Is (the
// control-plane daemon maps them to HTTP statuses). The VM operations
// return them before changing any state. Each sentinel's text is the
// phrase its messages share, so wrapping it with %w leaves every message
// as it reads.
var (
	// ErrExists: a VM with the requested name already exists.
	ErrExists = errors.New("already exists")
	// ErrBusy: another operation on the VM is in flight.
	ErrBusy = errors.New("is busy")
	// ErrNoFreeVF: the placement needs a free VF and none is left.
	ErrNoFreeVF = errors.New("free VF")
	// ErrSameNode: the VM is already on the migration destination.
	ErrSameNode = errors.New("is already on node")
	// ErrNoVM: no VM has the given name.
	ErrNoVM = errors.New("no VM")
	// ErrNotHypervisor: the node named as a placement is not a hypervisor.
	ErrNotHypervisor = errors.New("is not a hypervisor")
)
