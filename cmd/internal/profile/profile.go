// Package profile gives the commands their -cpuprofile and -memprofile
// flags: a CPU profile of the whole run, and an allocation profile of
// every allocation, written when the command returns, for `go tool pprof`.
package profile

import (
	"errors"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags registers -cpuprofile and -memprofile on fs.
func Flags(fs *flag.FlagSet) (cpuPath, memPath *string) {
	cpuPath = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memPath = fs.String("memprofile", "", "write an allocation profile to this file on exit")
	return cpuPath, memPath
}

// Start starts a CPU profile into cpuPath, if named, and returns the
// function that ends it and then writes the allocation profile into
// memPath, if named.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var err error
		if cpu != nil {
			pprof.StopCPUProfile()
			err = cpu.Close()
		}
		if memPath != "" {
			err = errors.Join(err, writeAllocProfile(memPath))
		}
		return err
	}, nil
}

// writeAllocProfile writes the allocation profile, up to date as of a
// collection run just before, into path.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
