// Package profile is the run lifecycle both commands share: the -trace,
// -metrics, -cpuprofile and -memprofile flags, and Start, which turns them
// into a running CPU profile, a tracer and a context cancelled by Ctrl-C,
// ended by one finish func. It also renders a flag set as the lines of a
// command's cli.txt.
package profile

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"seedscan/internal/telemetry"
)

// Set says which lifecycle flags a command takes.
type Set int

const (
	// None registers no flag: Start still gives a Ctrl-C context and a
	// tracer that only carries a registry.
	None Set = iota
	// Telemetry registers -trace and -metrics.
	Telemetry
	// All registers Telemetry's flags, -cpuprofile and -memprofile.
	All
)

// Flags holds the parsed lifecycle flags of one command.
type Flags struct {
	trace, cpuPath, memPath string
	metrics                 bool
}

// Register registers set's flags on fs.
func Register(fs *flag.FlagSet, set Set) *Flags {
	f := &Flags{}
	if set >= Telemetry {
		fs.StringVar(&f.trace, "trace", "", "write a JSONL telemetry event log to this file")
		fs.BoolVar(&f.metrics, "metrics", false, "print final metric values on exit")
	}
	if set >= All {
		fs.StringVar(&f.cpuPath, "cpuprofile", "", "write a CPU profile of the run to this file")
		fs.StringVar(&f.memPath, "memprofile", "", "write an allocation profile to this file on exit")
	}
	return f
}

// Start starts the CPU profile, the tracer and a context that Ctrl-C or
// parent cancels. finish ends them in reverse: it stops the context,
// closes the tracer (appending the final metrics snapshot to the trace),
// prints the metrics to stdout under -metrics, ends the CPU profile and
// writes the allocation profile, and returns what failed.
func (f *Flags) Start(parent context.Context, stdout io.Writer) (ctx context.Context, tr *telemetry.Tracer, finish func() error, err error) {
	var cpu *os.File
	if f.cpuPath != "" {
		if cpu, err = os.Create(f.cpuPath); err != nil {
			return nil, nil, nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, nil, nil, err
		}
	}
	stopProfiles := func() error {
		var err error
		if cpu != nil {
			pprof.StopCPUProfile()
			err = cpu.Close()
		}
		if f.memPath != "" {
			err = errors.Join(err, writeAllocProfile(f.memPath))
		}
		return err
	}
	var sinks []telemetry.Sink
	if f.trace != "" {
		s, err := telemetry.CreateJSONLFile(f.trace)
		if err != nil {
			return nil, nil, nil, errors.Join(err, stopProfiles())
		}
		sinks = append(sinks, s)
	}
	tr = telemetry.NewTracer(nil, sinks...)
	ctx, stop := signal.NotifyContext(parent, os.Interrupt)
	return ctx, tr, func() error {
		stop()
		err := tr.Close()
		if f.metrics {
			fmt.Fprint(stdout, tr.Registry().Snapshot().Render())
		}
		return errors.Join(err, stopProfiles())
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

// CLILines renders the flags of fs, which command cmd parses, as cli.txt
// lines: "cmd -flag type default usage", in flag name order, the default
// quoted.
func CLILines(cmd string, fs *flag.FlagSet) []string {
	var lines []string
	fs.VisitAll(func(f *flag.Flag) {
		lines = append(lines, fmt.Sprintf("%s -%s %T %q %s", cmd, f.Name, f.Value.(flag.Getter).Get(), f.DefValue, f.Usage))
	})
	return lines
}

// DiffCLI compares lines with the cli.txt at path and returns an error
// listing, as +/- lines, what lines has that the file lacks and what the
// file has that lines lacks.
func DiffCLI(path string, lines []string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	want := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	msg := ""
	for _, l := range lines {
		if !slices.Contains(want, l) {
			msg += "\n+" + l
		}
	}
	for _, l := range want {
		if !slices.Contains(lines, l) {
			msg += "\n-" + l
		}
	}
	if msg != "" {
		return fmt.Errorf("the flags differ from %s; edit it to match:%s", path, msg)
	}
	return nil
}
