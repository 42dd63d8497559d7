// Command experiments reproduces the paper's evaluation: every table and
// figure, rendered as text. Individual experiments are selectable; sizes
// are scaled-down defaults that preserve the paper's shape.
//
// cli.txt in this directory lists every flag with its type, default and
// usage; TestCLI keeps it exact. -run takes "all" or a comma-separated
// subset of experiment.Sections' names, run in table order:
// table1,table3,table7,fig1,fig2,fig3,table4,fig4,fig5,table5,table6,raw,
// fig6,fig7,rq5,rq5time,raw912,ablation ("all" leaves out raw912 and
// ablation, which run only when named).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"seedscan/cmd/internal/profile"
	"seedscan/internal/experiment"
	"seedscan/internal/experiment/grid"
	"seedscan/internal/proto"
	"seedscan/internal/tga/all"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// sectionNames lists experiment.Sections' names in table order.
func sectionNames() []string {
	names := make([]string, len(experiment.Sections))
	for i, s := range experiment.Sections {
		names[i] = s.Name
	}
	return names
}

// selectSections resolves a -run list against experiment.Sections, in
// table order whatever the list's. "all" selects every section that is
// not opt-in; a name the table does not have is an error.
func selectSections(list string) ([]experiment.Section, error) {
	names := sectionNames()
	want := map[string]bool{}
	for _, r := range strings.Split(list, ",") {
		name := strings.TrimSpace(r)
		if name != "all" && !slices.Contains(names, name) {
			return nil, fmt.Errorf("unknown -run section %q (valid: all,%s)", name, strings.Join(names, ","))
		}
		want[name] = true
	}
	var selected []experiment.Section
	for _, s := range experiment.Sections {
		if want[s.Name] || want["all"] && !s.OptIn {
			selected = append(selected, s)
		}
	}
	return selected, nil
}

// config is the parsed command line.
type config struct {
	budget, ases, clusterWorkers  int
	scale                         float64
	seed                          uint64
	runList, protos, gens, resume string
	listCells                     bool
	life                          *profile.Flags
}

// flags registers the command's flags on fs.
func flags(fs *flag.FlagSet) *config {
	c := &config{life: profile.Register(fs, profile.All)}
	fs.IntVar(&c.budget, "budget", 20000, "per-TGA generation budget")
	fs.IntVar(&c.ases, "ases", 300, "number of ASes in the simulated Internet")
	fs.Float64Var(&c.scale, "scale", 1, "seed collection scale factor")
	fs.Uint64Var(&c.seed, "seed", 42, "world seed")
	fs.StringVar(&c.runList, "run", "all", "comma-separated sections to run: all, "+strings.Join(sectionNames(), ", "))
	fs.StringVar(&c.protos, "protos", "icmp", "protocols for the TGA sweeps (comma-separated, or 'all')")
	fs.StringVar(&c.gens, "gens", "paper", "generators to sweep: 'paper' (the study set), 'extended' (adds AddrMiner and 6Prob), or a comma-separated list")
	fs.IntVar(&c.clusterWorkers, "cluster-workers", 0, "fan scanning out across N in-process cluster workers (results unchanged)")
	fs.StringVar(&c.resume, "resume", "", "checkpoint completed grid cells under this directory and resume from them")
	fs.BoolVar(&c.listCells, "list-cells", false, "print the deduplicated cell plan for the selection and exit")
	return c
}

// run is main without the process: it parses args, runs the selection and
// returns the exit code (2 for a flag the command cannot act on).
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := flags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	selected, err := selectSections(c.runList)
	params := experiment.Params{Budget: c.budget, Gens: all.Names}
	if c.protos == "all" {
		params.Protos = proto.All[:]
	} else {
		// Every section walks the protocols in proto.All order, whatever
		// the list's.
		var named [proto.Count]bool
		for _, s := range strings.Split(c.protos, ",") {
			switch p, perr := proto.Parse(strings.TrimSpace(s)); {
			case perr != nil:
				err = errors.Join(err, perr)
			case named[p]:
				err = errors.Join(err, fmt.Errorf("-protos names %s twice", p))
			default:
				named[p] = true
			}
		}
		for _, p := range proto.All {
			if named[p] {
				params.Protos = append(params.Protos, p)
			}
		}
	}
	switch c.gens {
	case "paper":
	case "extended":
		params.Gens = all.ExtendedNames
	default:
		params.Gens = nil
		for _, s := range strings.Split(c.gens, ",") {
			name := strings.TrimSpace(s)
			_, gerr := all.New(name)
			if gerr == nil && slices.Contains(params.Gens, name) {
				gerr = fmt.Errorf("-gens names %s twice", name)
			}
			err = errors.Join(err, gerr)
			params.Gens = append(params.Gens, name)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	ctx, tr, finish, err := c.life.Start(context.Background(), stdout)
	if err != nil {
		return fail(err)
	}
	defer func() {
		if err := finish(); err != nil && code == 0 {
			code = fail(err)
		}
	}()
	start := time.Now()
	fmt.Fprintf(stdout, "# seedscan experiments — budget=%d ases=%d scale=%g seed=%d gens=%s\n\n",
		c.budget, c.ases, c.scale, c.seed, c.gens)

	var store grid.Store
	if c.resume != "" {
		if err := os.MkdirAll(c.resume, 0o755); err != nil {
			return fail(err)
		}
		js, err := grid.OpenJSONL(filepath.Join(c.resume, "cells.jsonl"))
		if err != nil {
			return fail(err)
		}
		defer js.Close()
		store = js
	}

	env := experiment.NewEnv(experiment.EnvConfig{
		WorldSeed: c.seed, NumASes: c.ases, CollectScale: c.scale, Budget: c.budget,
		Telemetry: tr, ClusterWorkers: c.clusterWorkers, GridStore: store,
	})

	if c.listCells {
		printCellPlan(stdout, env, selected, params, store)
		return 0
	}
	fmt.Fprintf(stdout, "world: %d regions, %d ASes, %d ground-truth aliased prefixes (%d listed offline)\n",
		len(env.World.Regions()), env.World.ASDB().Len(),
		len(env.World.AliasedPrefixes()), env.Offline.Len())
	fmt.Fprintf(stdout, "seeds: %s unique across %d sources\n\n",
		experiment.FmtInt(env.Full.Len()), len(env.Sources))

	for _, s := range selected {
		if err := s.Run(ctx, env, params, stdout); err != nil {
			return fail(err)
		}
	}

	fmt.Fprintf(stdout, "done in %v; %s probe packets sent (virtual scan time %.1fs at 10k pps)\n",
		time.Since(start).Round(time.Millisecond),
		experiment.FmtInt(int(env.Scanner.Stats().PacketsSent.Load())),
		env.Scanner.VirtualElapsed())
	return 0
}

// printCellPlan renders the deduplicated worklist the selection would
// execute: one line per unique cell with the specs that request it, plus
// how many are already checkpointed in the resume store.
func printCellPlan(w io.Writer, env *experiment.Env, selected []experiment.Section, params experiment.Params, store grid.Store) {
	var specs []grid.Spec
	for _, s := range selected {
		specs = append(specs, s.Specs(env, params)...)
	}
	plan := grid.Plan(specs...)
	planned := 0
	for _, s := range specs {
		planned += len(s.Cells)
	}
	fp := env.Fingerprint()
	resumed := 0
	for _, pc := range plan {
		marker := " "
		if store != nil {
			if _, ok := store.Get(pc.Cell.Key(fp)); ok {
				marker = "*"
				resumed++
			}
		}
		fmt.Fprintf(w, "%s %-52s <- %s\n", marker, pc.Cell.ID(), strings.Join(pc.Specs, ", "))
	}
	fmt.Fprintf(w, "\n%d cells planned across %d specs, %d unique after dedup", planned, len(specs), len(plan))
	if store != nil {
		fmt.Fprintf(w, ", %d already checkpointed (*)", resumed)
	}
	fmt.Fprintf(w, "\nfingerprint: %s\n", fp)
}
