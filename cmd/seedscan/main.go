// Command seedscan is the operator CLI for the seedscan library: it builds
// a simulated IPv6 Internet, collects seed datasets, preprocesses them,
// runs Target Generation Algorithms, scans, and dealiases — the same
// pipeline the experiments use, exposed piecewise.
//
// `seedscan help` lists the subcommands and `seedscan <command> -h` one
// command's flags. cli.txt in this directory lists every command's flags
// with their types, defaults and usage; TestCLI keeps it exact.
//
// Exit status 2 means the command line was refused before anything
// started or was written: fs.Parse parses and range-checks every flag
// value. 1 means a run that failed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"

	"seedscan/cmd/internal/profile"
	"seedscan/internal/alias"
	"seedscan/internal/cluster"
	"seedscan/internal/experiment"
	"seedscan/internal/experiment/grid"
	"seedscan/internal/hitlist"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/scanner"
	"seedscan/internal/seeds"
	"seedscan/internal/telemetry"
	"seedscan/internal/tga/all"
	"seedscan/internal/wire"
	"seedscan/internal/world"
)

// A command is one subcommand. flags registers the command's own flags on
// fs and returns the body that runs once they parse; life picks the
// lifecycle flags it takes besides.
type command struct {
	name, summary string
	life          profile.Set
	flags         func(fs *flag.FlagSet) body
}

// A body runs a command under ctx, which Ctrl-C cancels, with its
// telemetry going to tr.
type body func(ctx context.Context, tr *telemetry.Tracer) error

// commands is the CLI, in the order `seedscan help` lists it.
var commands = []command{
	{"world", "print the simulated Internet's composition", profile.None, cmdWorld},
	{"collect", "collect one seed source and print its statistics", profile.None, cmdCollect},
	{"run", "run one TGA end-to-end (generate, scan, dealias, measure)", profile.Telemetry, cmdRun},
	{"scan", "scan a dataset's addresses on one protocol", profile.All, cmdScan},
	{"dealias", "split a dataset into clean and aliased addresses", profile.Telemetry, cmdDealias},
	{"hitlist", "run the full hitlist-service pipeline and publish artifacts", profile.None, cmdHitlist},
	{"build-db", "build a hitlist and publish it into a hitlistdb store directory", profile.Telemetry, cmdBuildDB},
	{"serve", "answer hitlist queries over HTTP from a hitlistdb store", profile.All, cmdServe},
	{"daemon", "run the longitudinal epoch-driven scanning service", profile.All, cmdDaemon},
}

func main() { os.Exit(run(os.Args[1:])) }

// run is main without the process: it runs the command args[0] names on
// the rest and returns the exit status: 2 for a command line refused
// before anything started or was written, 1 for a run that failed.
func run(args []string) int {
	if len(args) == 0 {
		usage()
		return 2
	}
	if slices.Contains([]string{"help", "-h", "--help"}, args[0]) {
		usage()
		return 0
	}
	err := execute(context.Background(), args[0], args[1:]...)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, new(usageError)):
		return 2
	}
	fmt.Fprintln(os.Stderr, "seedscan:", err)
	return 1
}

// A usageError is a command line that cannot run, already reported on
// stderr with the usage text.
type usageError struct{ error }

// execute runs the command name on args, under parent. A flag value that
// does not parse or is out of range or an unknown command comes back as a
// usageError, before the lifecycle starts; -h comes back as flag.ErrHelp.
func execute(parent context.Context, name string, args ...string) error {
	i := slices.IndexFunc(commands, func(c command) bool { return c.name == name })
	if i < 0 {
		fmt.Fprintf(os.Stderr, "seedscan: unknown command %q\n", name)
		usage()
		return usageError{fmt.Errorf("unknown command %q", name)}
	}
	fs, life, do := commands[i].flagSet()
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	return life.Run(parent, os.Stdout, do)
}

// flagSet builds c's flag set: its lifecycle flags and its own.
func (c command) flagSet() (*flag.FlagSet, *profile.Flags, body) {
	fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
	return fs, profile.Register(fs, c.life), c.flags(fs)
}

func usage() {
	fmt.Fprint(os.Stderr, "usage: seedscan <command> [flags]\n\ncommands:\n")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(os.Stderr, "\nrun 'seedscan <command> -h' for per-command flags")
}

// worldFlags wires the flags that shape the simulated Internet into fs.
func worldFlags(fs *flag.FlagSet) (seed *uint64, ases *int) {
	return fs.Uint64("seed", 42, "world seed"), profile.AtLeast(fs, "ases", 200, 1, "number of ASes")
}

// envFlags wires worldFlags and the seed collection scale into fs, for
// the commands that collect seeds.
func envFlags(fs *flag.FlagSet) (seed *uint64, ases *int, scale *float64) {
	seed, ases = worldFlags(fs)
	return seed, ases, profile.Positive(fs, "scale", 0.5, math.MaxFloat64, "seed collection scale")
}

// sourceFlag defines -source: a seeds.AllSources name, in any case.
func sourceFlag(fs *flag.FlagSet, def, usage string) *seeds.Source {
	return profile.Var(fs, "source", def, usage, func(name string) (seeds.Source, error) {
		for _, s := range seeds.AllSources {
			if strings.EqualFold(s.String(), name) {
				return s, nil
			}
		}
		return 0, fmt.Errorf("unknown source %q (one of: %v)", name, seeds.AllSources)
	})
}

// buildEnv assembles the environment every subcommand works in; chain is
// composed onto the environment's link (see the -wire-* flags), the zero
// value for the bare link.
func buildEnv(seed uint64, ases int, scale float64, tr *telemetry.Tracer, chain wire.ChainConfig) *experiment.Env {
	return experiment.NewEnv(experiment.EnvConfig{
		WorldSeed: seed, NumASes: ases, CollectScale: scale, Telemetry: tr, Wire: chain,
	})
}

// logf logs a cluster's progress to stderr.
func logf(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }

// wireSummary prints what the run's wire chain did, one line per piece
// that moved, from the wire.* metrics in reg.
func wireSummary(reg *telemetry.Registry) {
	c := reg.Snapshot().Counters
	if c["wire.tap.probes"] > 0 {
		fmt.Printf("wire tap: %d probes, %d replies\n", c["wire.tap.probes"], c["wire.tap.replies"])
	}
	if c["wire.shaper.packets"] > 0 {
		fmt.Printf("wire shaper: %d packets, %.2fs virtual egress time\n",
			c["wire.shaper.packets"], float64(c["wire.shaper.virtual_ns"])/1e9)
	}
	if c["wire.faults.dropped"]+c["wire.faults.duplicated"]+c["wire.faults.delayed"] > 0 {
		fmt.Printf("wire faults: %d dropped, %d duplicated, %d delayed\n",
			c["wire.faults.dropped"], c["wire.faults.duplicated"], c["wire.faults.delayed"])
	}
}

func cmdWorld(fs *flag.FlagSet) body {
	seed, ases := worldFlags(fs)
	return func(context.Context, *telemetry.Tracer) error {
		w := world.New(world.Config{Seed: *seed, NumASes: *ases})
		byClass := map[string]int{}
		aliased := 0
		var hosts float64
		for _, r := range w.Regions() {
			if r.Aliased {
				aliased++
				continue
			}
			byClass[r.Class.String()]++
			hosts += r.ExpectedHosts()
		}
		fmt.Printf("world seed=%d: %d ASes, %d regions (%d aliased), ~%.0f hosts\n",
			*seed, w.ASDB().Len(), len(w.Regions()), aliased, hosts)
		for _, c := range sortedKeys(byClass) {
			fmt.Printf("  %-12s %d regions\n", c, byClass[c])
		}
		byOrg := map[string]int{}
		for _, as := range w.ASDB().All() {
			byOrg[as.Type.String()]++
		}
		for _, o := range sortedKeys(byOrg) {
			fmt.Printf("  %-12s %d ASes\n", o, byOrg[o])
		}
		return nil
	}
}

func cmdCollect(fs *flag.FlagSet) body {
	seed, ases, scale := envFlags(fs)
	src := sourceFlag(fs, "IPv6 Hitlist", "seed source name")
	show := profile.AtLeast(fs, "show", 5, 0, "sample addresses to print")
	out := fs.String("o", "", "write the dataset to this file (.gz for gzip)")
	return func(_ context.Context, tr *telemetry.Tracer) error {
		env := buildEnv(*seed, *ases, *scale, tr, wire.ChainConfig{})
		ds := env.Sources[*src]
		fmt.Printf("%s: %d unique addresses, %d ASes\n", ds.Name, ds.Len(), ds.ASCount(env.World.ASDB()))
		aliasedN, activeN := 0, 0
		ds.Addrs.Each(func(a ipaddr.Addr) {
			if env.World.IsAliased(a) {
				aliasedN++
			}
			if env.World.ActiveOnAny(a, world.ScanEpoch) {
				activeN++
			}
		})
		if ds.Len() == 0 { // no share of nothing to print
			fmt.Printf("  aliased: 0, responsive at scan time: 0\n")
		} else {
			fmt.Printf("  aliased: %d (%.1f%%), responsive at scan time: %d (%.1f%%)\n",
				aliasedN, 100*float64(aliasedN)/float64(ds.Len()),
				activeN, 100*float64(activeN)/float64(ds.Len()))
		}
		for i, a := range ds.Addrs.Sorted() {
			if i >= *show {
				break
			}
			fmt.Println(" ", a)
		}
		if *out != "" {
			if err := ds.WriteFile(*out); err != nil {
				return err
			}
			fmt.Printf("wrote %d addresses to %s\n", ds.Len(), *out)
		}
		return nil
	}
}

func cmdRun(fs *flag.FlagSet) body {
	seed, ases, scale := envFlags(fs)
	gen := profile.Var(fs, "tga", "6Tree", "generator: "+strings.Join(all.ExtendedNames, ", "), func(name string) (string, error) {
		_, err := all.New(name)
		return name, err
	})
	p := profile.Var(fs, "proto", "icmp", "protocol: icmp, tcp80, tcp443, udp53", proto.Parse)
	// A TGA run's candidate set holds its budget: no more than ipaddr.MaxSetLen.
	budget := profile.Between(fs, "budget", 20000, 1, ipaddr.MaxSetLen, "generation budget")
	t := profile.Var(fs, "seeds", string(experiment.TreatmentAllActive),
		"seed treatment, as experiments -list-cells names it: full, all-active, dealiased:MODE, port-active:PROTO or source-active:SOURCE",
		experiment.ParseTreatment)
	checkpoint := fs.String("checkpoint", "", "checkpoint the run as a grid cell in this JSONL store (reruns load instead of scanning)")
	return func(ctx context.Context, tr *telemetry.Tracer) error {
		cfg := experiment.EnvConfig{
			WorldSeed: *seed, NumASes: *ases, CollectScale: *scale, Budget: *budget,
			Telemetry: tr,
		}
		if *checkpoint != "" {
			store, err := grid.OpenJSONL(*checkpoint)
			if err != nil {
				return err
			}
			defer store.Close()
			cfg.GridStore = store
		}
		env := experiment.NewEnv(cfg)
		spec := env.SpecOneCell(*gen, *t, *p, *budget)
		fmt.Printf("running %s on seed treatment %q, %s, budget %d\n", *gen, *t, *p, *budget)
		rs, err := env.Grid().Run(ctx, spec)
		if err != nil {
			return err
		}
		res := rs.Of(spec.Cells[0])
		fmt.Printf("hits: %d dealiased active addresses in %d ASes; %d aliased discarded\n",
			res.Outcome.Hits, res.Outcome.ASes, res.Outcome.Aliases)
		fmt.Printf("scanner: %d packets sent, %.1fs virtual scan time at 10k pps\n",
			env.Scanner.Stats().PacketsSent.Load(), env.Scanner.VirtualElapsed())
		return nil
	}
}

func cmdScan(fs *flag.FlagSet) body {
	seed, ases, scale := envFlags(fs)
	src := sourceFlag(fs, "IPv6 Hitlist", "seed source to scan")
	p := profile.Var(fs, "proto", "icmp", "protocol", proto.Parse)
	clusterN := profile.AtLeast(fs, "cluster-workers", 0, 0, "coordinate over this many in-process workers")
	wireFlags := wire.ChainFlags(fs)
	return func(ctx context.Context, tr *telemetry.Tracer) error {
		// Every probe crosses the chain: the environment's scanner and the
		// in-process pool both build it from one value.
		chain := wireFlags(*seed)
		env := buildEnv(*seed, *ases, *scale, tr, chain)
		ds := env.Sources[*src]

		var results []scanner.Result
		if *clusterN > 0 {
			pool := cluster.NewLocalPool(*clusterN, env.World.Link(), cluster.Config{
				Secret:    env.Cfg.ScanSecret,
				Telemetry: tr.Registry(),
				Wire:      chain,
				Logf:      logf,
			})
			run, err := pool.Run(ctx, ds.Slice(), *p)
			if err != nil {
				return err
			}
			printClusterRun(run)
			results = run.Results
		} else {
			var err error
			if results, err = env.Scanner.ScanContext(ctx, ds.Slice(), *p); err != nil {
				return err
			}
		}
		counts := map[string]int{}
		for _, r := range results {
			counts[r.Status.String()]++
		}
		fmt.Printf("scanned %s on %s: %d targets\n", ds.Name, *p, len(results))
		for _, k := range []string{"active", "silent", "rst", "unreachable", "blocked"} {
			if counts[k] > 0 {
				fmt.Printf("  %-12s %d\n", k, counts[k])
			}
		}
		wireSummary(tr.Registry())
		return nil
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printClusterRun summarizes a coordinated scan: shard accounting first,
// then the per-worker contributions in worker-ID order.
func printClusterRun(run *cluster.RunResult) {
	fmt.Printf("cluster: %d shards across %d workers (%d reassigned)\n",
		run.Shards, len(run.Workers), run.Reassigned)
	for _, id := range sortedKeys(run.Workers) {
		r := run.Workers[id]
		fmt.Printf("  %-20s %3d shards, %8d packets, %8.0f pps\n",
			id, r.ShardsCompleted, r.PacketsSent, r.PPS())
	}
}

func cmdDealias(fs *flag.FlagSet) body {
	seed, ases, scale := envFlags(fs)
	src := sourceFlag(fs, "AddrMiner", "seed source to dealias")
	mode := profile.Var(fs, "mode", "joint", "mode: none, offline, online, joint, cooldown", alias.ParseMode)
	return func(_ context.Context, tr *telemetry.Tracer) error {
		env := buildEnv(*seed, *ases, *scale, tr, wire.ChainConfig{})
		ds := env.Sources[*src]
		d := alias.New(*mode, env.Offline, env.Scanner, proto.ICMP, *seed, tr.Registry())
		// Split partitions in place: ds.Slice() is a copy, the dataset is
		// left alone.
		clean, aliased := d.Split(ds.Slice())
		fmt.Printf("%s under %s dealiasing: %d clean, %d aliased (%d /96s tested, %d probes)\n",
			ds.Name, *mode, len(clean), len(aliased), d.PrefixesTested(), d.ProbesSent())
		return nil
	}
}

func cmdHitlist(fs *flag.FlagSet) body {
	seed, ases, scale := envFlags(fs)
	outAddrs := fs.String("o", "", "write the responsive list to this file (.gz for gzip)")
	outAliases := fs.String("aliases", "", "write the aliased-prefix list to this file")
	return func(ctx context.Context, tr *telemetry.Tracer) error {
		snap, err := buildHitlist(ctx, buildEnv(*seed, *ases, *scale, tr, wire.ChainConfig{}), tr.Registry())
		if err != nil {
			return err
		}
		fmt.Print(snap.Summary())
		if *outAddrs != "" {
			if err := snap.ResponsiveDataset().WriteFile(*outAddrs); err != nil {
				return err
			}
			fmt.Printf("wrote responsive list to %s\n", *outAddrs)
		}
		if *outAliases != "" {
			f, err := os.Create(*outAliases)
			if err != nil {
				return err
			}
			if err := seeds.WritePrefixes(f, snap.AliasedPrefixes); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %d aliased prefixes to %s\n", len(snap.AliasedPrefixes), *outAliases)
		}
		return nil
	}
}

// buildHitlist runs the hitlist service over every seed source of env,
// counting into reg: the pipeline behind hitlist and build-db.
func buildHitlist(ctx context.Context, env *experiment.Env, reg *telemetry.Registry) (*hitlist.Snapshot, error) {
	svc, err := hitlist.New(
		hitlist.WithProber(env.Scanner),
		hitlist.WithKnownAliases(env.Offline),
		hitlist.WithSeed(env.Cfg.WorldSeed),
		hitlist.WithTelemetry(reg),
	)
	if err != nil {
		return nil, err
	}
	inputs := make([]*seeds.Dataset, 0, len(env.Sources))
	for _, src := range seeds.AllSources {
		inputs = append(inputs, env.Sources[src])
	}
	return svc.BuildContext(ctx, inputs...)
}
