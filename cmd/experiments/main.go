// Command experiments reproduces the paper's evaluation: every table and
// figure, rendered as text. Individual experiments are selectable; sizes
// are scaled-down defaults that preserve the paper's shape.
//
// cli.txt in this directory lists every flag with its type, default and
// usage; TestCLI keeps it exact. fs.Parse parses and range-checks every
// value, so exit status 2 means the command line was refused before
// anything started or was written. -run takes "all" or a comma-separated
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
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"seedscan/cmd/internal/profile"
	"seedscan/internal/experiment"
	"seedscan/internal/experiment/grid"
	"seedscan/internal/ipaddr"
	"seedscan/internal/proto"
	"seedscan/internal/telemetry"
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

// flags registers the command's flags on fs and returns the lifecycle
// flags and the run they configure, for after fs.Parse accepts them: it
// runs the selection under ctx with its telemetry going to tr.
func flags(fs *flag.FlagSet) (*profile.Flags, func(ctx context.Context, tr *telemetry.Tracer, stdout io.Writer) error) {
	life := profile.Register(fs, profile.All)
	// A TGA run's candidate set holds its budget: no more than ipaddr.MaxSetLen.
	budget := profile.Between(fs, "budget", 20000, 1, ipaddr.MaxSetLen, "per-TGA generation budget")
	ases := profile.AtLeast(fs, "ases", 300, 1, "number of ASes in the simulated Internet")
	scale := profile.Positive(fs, "scale", 1, math.MaxFloat64, "seed collection scale factor")
	seed := fs.Uint64("seed", 42, "world seed")
	sections := profile.Var(fs, "run", "all", "comma-separated sections to run: all, "+strings.Join(sectionNames(), ", "), selectSections)
	protos := profile.Var(fs, "protos", "icmp", "protocols for the TGA sweeps (comma-separated, or 'all')", func(list string) ([]proto.Protocol, error) {
		if list == "all" {
			return proto.All[:], nil
		}
		ps, err := distinct("-protos", list, proto.Parse)
		slices.Sort(ps) // proto.All order (the constants'), whatever the list's: every section walks them in it
		return ps, err
	})
	gens := profile.Var(fs, "gens", "paper", "generators to sweep: 'paper' (the study set), 'extended' (adds AddrMiner and 6Prob), or a comma-separated list", func(list string) ([]string, error) {
		if named, ok := map[string][]string{"paper": all.Names, "extended": all.ExtendedNames}[list]; ok {
			return named, nil
		}
		return distinct("-gens", list, func(name string) (string, error) {
			_, err := all.New(name)
			return name, err
		})
	})
	clusterWorkers := profile.AtLeast(fs, "cluster-workers", 0, 0, "fan scanning out across N in-process cluster workers (results unchanged)")
	resume := fs.String("resume", "", "checkpoint completed grid cells under this directory and resume from them")
	listCells := fs.Bool("list-cells", false, "print the deduplicated cell plan for the selection and exit")
	return life, func(ctx context.Context, tr *telemetry.Tracer, stdout io.Writer) error {
		params := experiment.Params{Budget: *budget, Protos: *protos, Gens: *gens}
		start := time.Now()
		fmt.Fprintf(stdout, "# seedscan experiments — budget=%d ases=%d scale=%g seed=%d gens=%s\n\n",
			*budget, *ases, *scale, *seed, fs.Lookup("gens").Value)

		var store grid.Store
		if *resume != "" {
			if err := os.MkdirAll(*resume, 0o755); err != nil {
				return err
			}
			js, err := grid.OpenJSONL(filepath.Join(*resume, "cells.jsonl"))
			if err != nil {
				return err
			}
			defer js.Close()
			store = js
		}

		env := experiment.NewEnv(experiment.EnvConfig{
			WorldSeed: *seed, NumASes: *ases, CollectScale: *scale, Budget: *budget,
			Telemetry: tr, ClusterWorkers: *clusterWorkers, GridStore: store,
		})

		if *listCells {
			printCellPlan(stdout, env, *sections, params, store)
			return nil
		}
		fmt.Fprintf(stdout, "world: %d regions, %d ASes, %d ground-truth aliased prefixes (%d listed offline)\n",
			len(env.World.Regions()), env.World.ASDB().Len(),
			len(env.World.AliasedPrefixes()), env.Offline.Len())
		fmt.Fprintf(stdout, "seeds: %s unique across %d sources\n\n",
			experiment.FmtInt(env.Full.Len()), len(env.Sources))

		for _, s := range *sections {
			if err := s.Run(ctx, env, params, stdout); err != nil {
				return err
			}
		}

		fmt.Fprintf(stdout, "done in %v; %s probe packets sent (virtual scan time %.1fs at 10k pps)\n",
			time.Since(start).Round(time.Millisecond),
			experiment.FmtInt(int(env.Scanner.Stats().PacketsSent.Load())),
			env.Scanner.VirtualElapsed())
		return nil
	}
}

// distinct parses each entry of flag's comma-separated list, refusing an
// entry named twice: it would print a section's rows twice.
func distinct[T comparable](flag, list string, parse func(string) (T, error)) ([]T, error) {
	var vs []T
	for _, s := range strings.Split(list, ",") {
		v, err := parse(strings.TrimSpace(s))
		if err == nil && slices.Contains(vs, v) {
			err = fmt.Errorf("%s names %v twice", flag, v)
		}
		if err != nil {
			return nil, err
		}
		vs = append(vs, v)
	}
	return vs, nil
}

// run is main without the process: it parses args, runs the selection and
// returns the exit status: 2 for a command line refused before anything
// started or was written, 1 for a run that failed.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	life, do := flags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := life.Run(context.Background(), stdout, func(ctx context.Context, tr *telemetry.Tracer) error {
		return do(ctx, tr, stdout)
	}); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
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
