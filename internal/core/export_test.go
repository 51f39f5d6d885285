package core

// Hooks for the external core_test package, whose tests plan through
// internal/shard's Manager (an in-package test cannot import it).

// PlanPool returns the pool of recycled plans.
func (f *Frame) PlanPool() []*PlanResult { return f.planPool }

// PinValid returns the number of consecutive Plans one pin stamp protects.
func (f *Frame) PinValid() int64 { return f.pinValid }

// SetPinValid overrides it; 1 re-stamps the whole window every Plan.
func (f *Frame) SetPinValid(n int64) { f.pinValid = n }
