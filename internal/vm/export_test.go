package vm

// Ledger hands the external test package the per-method ledger: each
// method's class vector and invoke count, nil for a method never
// invoked.
func (vm *VM) Ledger() []*methodCounters { return vm.ledger }
