// Package profile is the run lifecycle both commands share: the -trace,
// -metrics, -cpuprofile and -memprofile flags, and Run, which runs a
// command's body under the CPU profile, tracer and Ctrl-C context they ask
// for and ends them. It also declares flags whose values fs.Parse parses
// and range-checks (Var, AtLeast, Positive), prints a flag set's -h text
// with each flag's type, and renders a flag set as the lines of a
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
	"strconv"
	"strings"
	"time"

	"seedscan/internal/telemetry"
)

// Set says which lifecycle flags a command takes.
type Set int

const (
	// None registers no flag: Run still gives a Ctrl-C context and a
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

// Register registers set's flags on fs, and makes fs's usage text (-h,
// or a refused command line) name every flag of fs by its type.
func Register(fs *flag.FlagSet, set Set) *Flags {
	fs.Usage = func() { usage(fs) }
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

// Run starts the CPU profile, the tracer and a context that Ctrl-C or
// parent cancels, runs do under them and ends them in reverse: it stops
// the context, closes the tracer (appending the final metrics snapshot to
// the trace), prints the metrics to stdout under -metrics, ends the CPU
// profile and writes the allocation profile. It returns what failed.
func (f *Flags) Run(parent context.Context, stdout io.Writer, do func(context.Context, *telemetry.Tracer) error) (err error) {
	var cpu *os.File
	if f.cpuPath != "" {
		if cpu, err = os.Create(f.cpuPath); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return err
		}
	}
	defer func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			err = errors.Join(err, cpu.Close())
		}
		if f.memPath != "" {
			err = errors.Join(err, writeAllocProfile(f.memPath))
		}
	}()
	var sinks []telemetry.Sink
	if f.trace != "" {
		s, err := telemetry.CreateJSONLFile(f.trace)
		if err != nil {
			return err
		}
		sinks = append(sinks, s)
	}
	tr := telemetry.NewTracer(nil, sinks...)
	defer func() {
		err = errors.Join(err, tr.Close())
		if f.metrics {
			fmt.Fprint(stdout, tr.Registry().Snapshot().Render())
		}
	}()
	ctx, stop := signal.NotifyContext(parent, os.Interrupt)
	defer stop()
	return do(ctx, tr)
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

// A Value is a flag value that fs.Parse parses and checks as it reads it.
// String is the text as typed; Get is the parsed T, the type cli.txt lists.
type Value[T any] struct {
	text  string
	v     T
	parse func(string) (T, error)
}

func (f *Value[T]) String() string { return f.text }
func (f *Value[T]) Get() any       { return f.v }

func (f *Value[T]) Set(s string) (err error) {
	f.text = s
	f.v, err = f.parse(s)
	return err
}

// Var defines a flag on fs whose text parse turns into a T, and returns
// where the parsed value lands. def is the default's text; it must parse.
func Var[T any](fs *flag.FlagSet, name, def, usage string, parse func(string) (T, error)) *T {
	f := &Value[T]{parse: parse}
	if err := f.Set(def); err != nil {
		panic(fmt.Sprintf("flag -%s: default %q: %v", name, def, err))
	}
	fs.Var(f, name, usage)
	return &f.v
}

// AtLeast defines an int or duration flag that fs.Parse refuses below min.
func AtLeast[T int | time.Duration](fs *flag.FlagSet, name string, def, min T, usage string) *T {
	return Var(fs, name, fmt.Sprint(def), usage, func(s string) (T, error) { return parseAtLeast(s, min) })
}

// Between defines an int flag that fs.Parse refuses outside [min, max].
func Between(fs *flag.FlagSet, name string, def, min, max int, usage string) *int {
	return Var(fs, name, fmt.Sprint(def), usage, func(s string) (v int, err error) {
		if v, err = parseAtLeast(s, min); err == nil && v > max {
			err = fmt.Errorf("want at most %v", max)
		}
		return v, err
	})
}

// parseAtLeast parses s as a T and refuses it below min.
func parseAtLeast[T int | time.Duration](s string, min T) (v T, err error) {
	switch p := any(&v).(type) {
	case *int: // as the flag package reads an int: 0x10 and 1_000 too
		var n int64
		n, err = strconv.ParseInt(s, 0, strconv.IntSize)
		*p = int(n)
	case *time.Duration:
		*p, err = time.ParseDuration(s)
	}
	if err == nil && v < min {
		err = fmt.Errorf("want at least %v", min)
	}
	return v, err
}

// Positive defines a float64 flag that fs.Parse refuses outside (0, max].
func Positive(fs *flag.FlagSet, name string, def, max float64, usage string) *float64 {
	return Var(fs, name, fmt.Sprint(def), usage, func(s string) (v float64, err error) {
		if v, err = strconv.ParseFloat(s, 64); err == nil && !(v > 0 && v <= max) { // NaN fails too
			err = fmt.Errorf("want a number in (0, %v]", max)
		}
		return v, err
	})
}

// usage prints fs's flags as the flag package's default usage does, but
// names each by the type its Get returns, as cli.txt does: "-ases int",
// not the "-ases value" the flag package prints for a Var.
func usage(fs *flag.FlagSet) {
	w := fs.Output()
	fmt.Fprintf(w, "Usage of %s:\n", fs.Name())
	fs.VisitAll(func(f *flag.Flag) {
		v := f.Value.(flag.Getter).Get()
		line := "  -" + f.Name
		if _, isBool := v.(bool); !isBool {
			line += fmt.Sprintf(" %T", v)
		}
		line += "\n    \t" + f.Usage
		switch _, isString := v.(string); {
		case f.DefValue == zeroText(v):
		case isString:
			line += fmt.Sprintf(" (default %q)", f.DefValue)
		default:
			line += " (default " + f.DefValue + ")"
		}
		fmt.Fprintln(w, line)
	})
}

// zeroText is the default text the flag package leaves out of the usage
// of a flag of v's type: the zero value's text for its own types, "" for
// any other.
func zeroText(v any) string {
	switch v.(type) {
	case bool:
		return "false"
	case int, int64, uint, uint64, float64:
		return "0"
	case time.Duration:
		return "0s"
	}
	return ""
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
