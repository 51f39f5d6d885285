// Package prof backs the commands' -cpuprofile and -memprofile flags
// with the standard runtime/pprof profiles, so the profile behind a
// performance change can be reproduced from the tree:
//
//	go run ./cmd/spbench -quick -experiment fig13 -memprofile mem.out
//	go tool pprof -sample_index=alloc_space -top mem.out
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start creates the profile files named by the non-empty paths and
// starts the CPU profile. The returned stop ends the CPU profile and
// writes the allocation profile (every allocation since the program
// started, sampled at the runtime's default rate); call it once, after
// the work to profile. With both paths empty Start and stop do nothing.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			return nil, fmt.Errorf("memprofile: %w", err)
		}
	}
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			closeFile(mem)
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			closeFile(cpu)
			closeFile(mem)
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if mem == nil {
			return nil
		}
		// The allocation profile is current as of the last GC.
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(mem, 0); err != nil {
			closeFile(mem)
			return fmt.Errorf("memprofile: %w", err)
		}
		if err := mem.Close(); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		return nil
	}, nil
}

// closeFile closes f on an error path, where the first error is the one
// worth reporting.
func closeFile(f *os.File) {
	if f != nil {
		_ = f.Close()
	}
}
