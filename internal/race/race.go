//go:build race

// Package race reports whether the binary was built with the race
// detector. Allocation pins consult it: under -race, sync.Pool drops a
// fraction of Puts on purpose, so a pooled path that is allocation-free
// in a normal build allocates there, and testing.AllocsPerRun == 0 cannot
// hold.
package race

// Enabled is true when built with -race.
const Enabled = true
