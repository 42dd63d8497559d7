// Command seedscan is the operator CLI for the seedscan library: it builds
// a simulated IPv6 Internet, collects seed datasets, preprocesses them,
// runs Target Generation Algorithms, scans, and dealiases — the same
// pipeline the experiments use, exposed piecewise.
//
// Subcommands:
//
//	world     print the simulated Internet's composition
//	collect   collect one seed source and print its statistics
//	run       run one TGA end-to-end (generate, scan, dealias, measure)
//	scan      scan a dataset's addresses on one protocol
//	dealias   split a dataset into clean and aliased addresses
//	hitlist   run the full hitlist-service pipeline and publish artifacts
//	build-db  build a hitlist and publish it into a hitlistdb store
//	serve     answer hitlist queries over HTTP from a hitlistdb store
//	daemon    run the longitudinal epoch-driven scanning service
//	resolve   simulate a ZDNS AAAA-resolution campaign over synthetic domains
//	worker    serve shards to a cluster coordinator over TCP
//
// scan can also coordinate a sharded cluster scan: -cluster-workers N
// fans out across N in-process workers, -cluster host:port,... drives
// remote `seedscan worker` processes over the wire protocol, whose job
// frames carry the -wire-* chain to every worker. Either way the merged
// output is byte-identical to the single-scanner scan.
//
// world, resolve and worker take -seed and -ases, which shape the
// simulated Internet; collect, run, scan, dealias, hitlist, build-db and
// daemon take them and -scale, the seed collection scale; serve takes
// none of them.
// scan, serve, daemon and worker also take -cpuprofile FILE and
// -memprofile FILE: pprof profiles of the command, written when it returns
// (for serve and worker, after Ctrl-C shuts them down).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
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
	"seedscan/internal/zdns"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "world":
		err = cmdWorld(args)
	case "collect":
		err = cmdCollect(args)
	case "run":
		err = cmdRun(args)
	case "scan":
		err = cmdScan(args)
	case "dealias":
		err = cmdDealias(args)
	case "hitlist":
		err = cmdHitlist(args)
	case "build-db":
		err = cmdBuildDB(args)
	case "serve":
		err = cmdServe(args)
	case "daemon":
		err = cmdDaemon(args)
	case "resolve":
		err = cmdResolve(args)
	case "worker":
		err = cmdWorker(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "seedscan: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "seedscan:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: seedscan <command> [flags]

commands:
  world     print the simulated Internet's composition
  collect   collect one seed source and print its statistics
  run       run one TGA end-to-end (generate, scan, dealias, measure)
  scan      scan a dataset's addresses on one protocol
  dealias   split a dataset into clean and aliased addresses
  hitlist   run the full hitlist-service pipeline and publish artifacts
  build-db  build a hitlist and publish it into a hitlistdb store directory
  serve     answer hitlist queries over HTTP from a hitlistdb store
  daemon    run the longitudinal epoch-driven scanning service
  resolve   simulate a ZDNS AAAA-resolution campaign over synthetic domains
  worker    serve shards to a cluster coordinator over TCP

run 'seedscan <command> -h' for per-command flags`)
}

// worldFlags wires the flags that shape the simulated Internet into fs.
func worldFlags(fs *flag.FlagSet) (seed *uint64, ases *int) {
	seed = fs.Uint64("seed", 42, "world seed")
	ases = fs.Int("ases", 200, "number of ASes")
	return
}

// envFlags wires worldFlags and the seed collection scale into fs, for
// the commands that collect seeds.
func envFlags(fs *flag.FlagSet) (seed *uint64, ases *int, scale *float64) {
	seed, ases = worldFlags(fs)
	scale = fs.Float64("scale", 0.5, "seed collection scale")
	return
}

// buildEnv assembles the environment every subcommand works in. tr may be
// nil (no telemetry); chain is composed onto the environment's link (see
// the -wire-* flags), the zero value for the bare link.
func buildEnv(seed uint64, ases int, scale float64, tr *telemetry.Tracer, chain wire.ChainConfig) *experiment.Env {
	return experiment.NewEnv(experiment.EnvConfig{
		WorldSeed: seed, NumASes: ases, CollectScale: scale, Telemetry: tr, Wire: chain,
	})
}

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

// teleFlags wires the shared telemetry flags into fs.
func teleFlags(fs *flag.FlagSet) (trace *string, metrics *bool) {
	trace = fs.String("trace", "", "write a JSONL telemetry event log to this file")
	metrics = fs.Bool("metrics", false, "print final metric values on exit")
	return
}

// newTracer builds a tracer for the parsed telemetry flags. The returned
// finish func closes the trace (flushing the JSONL file and appending the
// final metrics snapshot) and, with -metrics, prints every counter, gauge,
// and histogram.
func newTracer(trace string, metrics bool) (*telemetry.Tracer, func(), error) {
	var sinks []telemetry.Sink
	if trace != "" {
		s, err := telemetry.CreateJSONLFile(trace)
		if err != nil {
			return nil, nil, err
		}
		sinks = append(sinks, s)
	}
	tr := telemetry.NewTracer(nil, sinks...)
	finish := func() {
		tr.Close()
		if metrics {
			fmt.Print(tr.Registry().Snapshot().Render())
		}
	}
	return tr, finish, nil
}

// signalContext returns a context cancelled by Ctrl-C.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt)
}

func cmdWorld(args []string) error {
	fs := flag.NewFlagSet("world", flag.ExitOnError)
	seed, ases := worldFlags(fs)
	fs.Parse(args)

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
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Printf("  %-12s %d regions\n", c, byClass[c])
	}
	byOrg := map[string]int{}
	for _, as := range w.ASDB().All() {
		byOrg[as.Type.String()]++
	}
	orgs := make([]string, 0, len(byOrg))
	for o := range byOrg {
		orgs = append(orgs, o)
	}
	sort.Strings(orgs)
	for _, o := range orgs {
		fmt.Printf("  %-12s %d ASes\n", o, byOrg[o])
	}
	return nil
}

func parseSource(name string) (seeds.Source, error) {
	for _, s := range seeds.AllSources {
		if strings.EqualFold(s.String(), name) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown source %q (one of: %v)", name, seeds.AllSources)
}

func cmdCollect(args []string) error {
	fs := flag.NewFlagSet("collect", flag.ExitOnError)
	seed, ases, scale := envFlags(fs)
	src := fs.String("source", "IPv6 Hitlist", "seed source name")
	show := fs.Int("show", 5, "sample addresses to print")
	out := fs.String("o", "", "write the dataset to this file (.gz for gzip)")
	fs.Parse(args)

	s, err := parseSource(*src)
	if err != nil {
		return err
	}
	env := buildEnv(*seed, *ases, *scale, nil, wire.ChainConfig{})
	ds := env.Sources[s]
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
	fmt.Printf("  aliased: %d (%.1f%%), responsive at scan time: %d (%.1f%%)\n",
		aliasedN, 100*float64(aliasedN)/float64(ds.Len()),
		activeN, 100*float64(activeN)/float64(ds.Len()))
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

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seed, ases, scale := envFlags(fs)
	gen := fs.String("tga", "6Tree", "generator: "+strings.Join(all.ExtendedNames, ", "))
	protoName := fs.String("proto", "icmp", "protocol: icmp, tcp80, tcp443, udp53")
	budget := fs.Int("budget", 20000, "generation budget")
	dataset := fs.String("seeds", "allactive", "seed treatment: full, dealiased, allactive, port")
	dealias := fs.String("dealias", "joint", "dealias mode for -seeds dealiased: none, offline, online, joint, cooldown")
	checkpoint := fs.String("checkpoint", "", "checkpoint the run as a grid cell in this JSONL store (reruns load instead of scanning)")
	trace, metrics := teleFlags(fs)
	fs.Parse(args)

	p, err := proto.Parse(*protoName)
	if err != nil {
		return err
	}
	tr, finish, err := newTracer(*trace, *metrics)
	if err != nil {
		return err
	}
	defer finish()
	ctx, stop := signalContext()
	defer stop()

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
	var treatment grid.Treatment
	switch *dataset {
	case "full":
		treatment = experiment.TreatmentFull
	case "dealiased":
		mode, err := alias.ParseMode(*dealias)
		if err != nil {
			return err
		}
		treatment = experiment.TreatmentDealiased(mode)
	case "allactive":
		treatment = experiment.TreatmentAllActive
	case "port":
		treatment = experiment.TreatmentPortActive(p)
	default:
		return fmt.Errorf("unknown seed treatment %q", *dataset)
	}
	spec := env.SpecOneCell(*gen, treatment, p, *budget)
	fmt.Printf("running %s on seed treatment %q, %s, budget %d\n", *gen, treatment, p, *budget)
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

func cmdScan(args []string) (err error) {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	seed, ases, scale := envFlags(fs)
	src := fs.String("source", "IPv6 Hitlist", "seed source to scan")
	protoName := fs.String("proto", "icmp", "protocol")
	clusterAddrs := fs.String("cluster", "", "coordinate over remote workers at these comma-separated host:port addresses")
	clusterN := fs.Int("cluster-workers", 0, "coordinate over this many in-process workers")
	wireFlags := wire.ChainFlags(fs)
	trace, metrics := teleFlags(fs)
	cpuProfile, memProfile := profile.Flags(fs)
	fs.Parse(args)

	p, err := proto.Parse(*protoName)
	if err != nil {
		return err
	}
	s, err := parseSource(*src)
	if err != nil {
		return err
	}
	chain, err := wireFlags(*seed)
	if err != nil {
		return err
	}
	stopProfiles, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()
	tr, finish, err := newTracer(*trace, *metrics)
	if err != nil {
		return err
	}
	defer finish()
	ctx, stop := signalContext()
	defer stop()
	// Every probe crosses the chain: the environment's scanner, the
	// in-process pool and each remote worker all build it from one value.
	env := buildEnv(*seed, *ases, *scale, tr, chain)
	ds := env.Sources[s]
	ccfg := cluster.Config{
		Secret:    env.Cfg.ScanSecret,
		Telemetry: tr.Registry(),
		Wire:      chain,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	}

	var results []scanner.Result
	switch {
	case *clusterAddrs != "":
		var workers []cluster.Worker
		for _, addr := range strings.Split(*clusterAddrs, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			rw, err := cluster.DialWorker(addr)
			if err != nil {
				return err
			}
			defer rw.Close()
			workers = append(workers, rw)
		}
		if len(workers) == 0 {
			return errors.New("scan: -cluster lists no worker addresses")
		}
		run, err := cluster.NewCoordinator(ccfg).Run(ctx, workers, ds.Slice(), p)
		if err != nil {
			return err
		}
		printClusterRun(run)
		results = run.Results
	case *clusterN > 0:
		run, err := cluster.NewLocalPool(*clusterN, env.World.Link(), ccfg).Run(ctx, ds.Slice(), p)
		if err != nil {
			return err
		}
		printClusterRun(run)
		results = run.Results
	default:
		results, err = env.Scanner.ScanContext(ctx, ds.Slice(), p)
		if err != nil {
			return err
		}
	}
	counts := map[string]int{}
	for _, r := range results {
		counts[r.Status.String()]++
	}
	fmt.Printf("scanned %s on %s: %d targets\n", ds.Name, p, len(results))
	for _, k := range []string{"active", "silent", "rst", "unreachable", "blocked"} {
		if counts[k] > 0 {
			fmt.Printf("  %-12s %d\n", k, counts[k])
		}
	}
	wireSummary(tr.Registry())
	return nil
}

// printClusterRun summarizes a coordinated scan: shard accounting first,
// then the per-worker contributions in worker-ID order.
func printClusterRun(run *cluster.RunResult) {
	fmt.Printf("cluster: %d shards across %d workers (%d reassigned)\n",
		run.Shards, len(run.Workers), run.Reassigned)
	ids := make([]string, 0, len(run.Workers))
	for id := range run.Workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		r := run.Workers[id]
		fmt.Printf("  %-20s %3d shards, %8d packets, %8.0f pps\n",
			id, r.ShardsCompleted, r.PacketsSent, r.PPS())
	}
}

func cmdWorker(args []string) (err error) {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	seed, ases := worldFlags(fs)
	listen := fs.String("listen", "127.0.0.1:9653", "address to serve the cluster wire protocol on")
	id := fs.String("id", "", "worker id announced to coordinators (default: the listen address)")
	trace, metrics := teleFlags(fs)
	cpuProfile, memProfile := profile.Flags(fs)
	fs.Parse(args)

	stopProfiles, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProfiles()) }()
	tr, finish, err := newTracer(*trace, *metrics)
	if err != nil {
		return err
	}
	defer finish()

	// The worker rebuilds the same deterministic world as the coordinator's
	// environment; the job frame carries the secret, retries, rate and wire
	// chain needed for its shards to merge byte-identically.
	w := world.New(world.Config{Seed: *seed, NumASes: *ases, Telemetry: tr.Registry()})
	w.SetEpoch(world.ScanEpoch)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	if *id == "" {
		*id = ln.Addr().String()
	}
	fmt.Printf("seedscan worker %q: serving on %s (world seed=%d, %d ASes)\n",
		*id, ln.Addr(), *seed, *ases)

	ctx, stop := signalContext()
	defer stop()
	err = cluster.Serve(ctx, ln, cluster.ServeConfig{
		WorkerID:  *id,
		Link:      w.Link(),
		Options:   []scanner.Option{scanner.WithTelemetry(tr.Registry())},
		Telemetry: tr.Registry(),
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	})
	wireSummary(tr.Registry())
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

func cmdDealias(args []string) error {
	fs := flag.NewFlagSet("dealias", flag.ExitOnError)
	seed, ases, scale := envFlags(fs)
	src := fs.String("source", "AddrMiner", "seed source to dealias")
	modeName := fs.String("mode", "joint", "mode: none, offline, online, joint, cooldown")
	trace, metrics := teleFlags(fs)
	fs.Parse(args)

	mode, err := alias.ParseMode(*modeName)
	if err != nil {
		return err
	}
	s, err := parseSource(*src)
	if err != nil {
		return err
	}
	tr, finish, err := newTracer(*trace, *metrics)
	if err != nil {
		return err
	}
	defer finish()
	env := buildEnv(*seed, *ases, *scale, tr, wire.ChainConfig{})
	ds := env.Sources[s]
	d := alias.New(mode, env.Offline, env.Scanner, proto.ICMP, *seed, tr.Registry())
	clean, aliased := d.Split(ds.Slice())
	fmt.Printf("%s under %s dealiasing: %d clean, %d aliased (%d /96s tested, %d probes)\n",
		ds.Name, mode, len(clean), len(aliased), d.PrefixesTested(), d.ProbesSent())
	return nil
}

func cmdHitlist(args []string) error {
	fs := flag.NewFlagSet("hitlist", flag.ExitOnError)
	seed, ases, scale := envFlags(fs)
	outAddrs := fs.String("o", "", "write the responsive list to this file (.gz for gzip)")
	outAliases := fs.String("aliases", "", "write the aliased-prefix list to this file")
	fs.Parse(args)

	snap, err := buildHitlist(*seed, *ases, *scale)
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

// buildHitlist runs the hitlist service over every seed source of the
// environment the flags describe.
func buildHitlist(seed uint64, ases int, scale float64) (*hitlist.Snapshot, error) {
	env := buildEnv(seed, ases, scale, nil, wire.ChainConfig{})
	svc, err := hitlist.New(
		hitlist.WithProber(env.Scanner),
		hitlist.WithKnownAliases(env.Offline),
		hitlist.WithSeed(seed),
	)
	if err != nil {
		return nil, err
	}
	inputs := make([]*seeds.Dataset, 0, len(env.Sources))
	for _, src := range seeds.AllSources {
		inputs = append(inputs, env.Sources[src])
	}
	return svc.Build(inputs...)
}

func cmdResolve(args []string) error {
	fs := flag.NewFlagSet("resolve", flag.ExitOnError)
	seed, ases := worldFlags(fs)
	n := fs.Int("n", 20000, "number of synthetic domains to resolve")
	rate := fs.Float64("rate", 0.047, "AAAA response rate (CT-log default; toplists ~0.25)")
	out := fs.String("o", "", "write resolved addresses to this file")
	fs.Parse(args)

	w := world.New(world.Config{Seed: *seed, NumASes: *ases})
	w.SetEpoch(world.CollectEpoch)
	zone, err := zdns.NewZone(w, zdns.ZoneConfig{Seed: *seed + 1, AAAARate: *rate})
	if err != nil {
		return err
	}
	names := zdns.GenerateNames(*seed+2, *n)
	set, stats := (&zdns.Resolver{Zone: zone}).ResolveAll(names)
	fmt.Printf("resolved %d domains: %d AAAA responses, %d records, %d unique IPv6 addresses\n",
		stats.Domains, stats.AAAAs, stats.Records, stats.UniqueIPs)
	if *out != "" {
		ds := seeds.FromSet("resolved", set)
		if err := ds.WriteFile(*out); err != nil {
			return err
		}
		fmt.Printf("wrote %d addresses to %s\n", ds.Len(), *out)
	}
	return nil
}
