// Command paperbench regenerates the paper's tables and figures on the
// synthetic benchmark suite.
//
// Usage:
//
//	paperbench [flags] [-table1] [-table2] [-table3] [-fig1] [-fig6] [-fig7]
//
// With no selection flags, everything runs. Tables and figure series print
// to stdout; Figure 6 writes PNG triptychs under -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cfaopc/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("paperbench: ")

	var (
		gridN    = flag.Int("grid", 256, "simulation grid (pixels per 2048 nm tile side): 256=8nm/px, 512=4nm/px, 2048=1nm/px")
		cases    = flag.String("cases", "", "comma-separated 1-based case subset (default: all ten)")
		baseIter = flag.Int("baseline-iters", 40, "pixel-engine iterations")
		coIter   = flag.Int("circleopt-iters", 60, "CircleOpt stage-2 iterations")
		initIter = flag.Int("init-iters", 24, "CircleOpt stage-1 MOSAIC iterations")
		kOpt     = flag.Int("kopt", 5, "kernels used during optimization")
		outDir   = flag.String("out", "figures", "output directory for Figure 6 PNGs")
		jsonDir  = flag.String("json", "", "also write each exhibit as JSON into this directory")
		t1       = flag.Bool("table1", false, "run Table 1")
		t2       = flag.Bool("table2", false, "run Table 2")
		t3       = flag.Bool("table3", false, "run Table 3")
		f1       = flag.Bool("fig1", false, "run Figure 1")
		f6       = flag.Bool("fig6", false, "run Figure 6 (PNG renders)")
		f7       = flag.Bool("fig7", false, "run Figure 7")
		abl      = flag.Bool("ablations", false, "run the design-choice ablations (STE, coverage repair, alpha, K_opt)")
		ext      = flag.Bool("extensions", false, "run the extension experiment (greedy set cover)")
	)
	flag.Parse()

	all := !*t1 && !*t2 && !*t3 && !*f1 && !*f6 && !*f7 && !*abl && !*ext

	o := bench.DefaultOptions()
	o.GridN = *gridN
	o.BaselineIters = *baseIter
	o.CircleOptIters = *coIter
	o.InitIters = *initIter
	o.KOpt = *kOpt
	if *cases != "" {
		for _, tok := range strings.Split(*cases, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				log.Fatalf("bad -cases entry %q: %v", tok, err)
			}
			o.Cases = append(o.Cases, id)
		}
	}

	emit := func(name string, v any) {
		if *jsonDir == "" {
			return
		}
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			log.Fatal(err)
		}
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(*jsonDir, name+".json"), data, 0o644); err != nil {
			log.Fatal(err)
		}
	}

	start := time.Now()
	r, err := bench.NewRunner(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("# grid %d (%.1f nm/px), %d cases, baseline %d iters, CircleOpt %d iters\n\n",
		o.GridN, r.Sim.DX, len(r.Suite), o.BaselineIters, o.CircleOptIters)

	if all || *t1 {
		t := r.Table1()
		fmt.Println(t.Format())
		emit("table1", t)
	}
	if all || *t2 {
		t := r.Table2()
		fmt.Println(t.Format())
		emit("table2", t)
	}
	if all || *t3 {
		t := r.Table3()
		fmt.Println(t.Format())
		emit("table3", t)
	}
	if all || *f1 {
		t := r.Figure1()
		fmt.Println(t.Format())
		emit("figure1", t)
	}
	if all || *f7 {
		shot, quality, epe := r.Figure7()
		fmt.Println(shot.Format())
		fmt.Println(quality.Format())
		fmt.Println(epe.Format())
		emit("figure7a", shot)
		emit("figure7b", quality)
		emit("figure7c", epe)
	}
	if *ext { // extensions only on request
		fmt.Println(r.ExtensionGreedy().Format())
	}
	if *abl { // ablations only on request: they re-run CircleOpt repeatedly
		fmt.Println(r.AblationSTE().Format())
		fmt.Println(r.AblationCoverageRepair().Format())
		fmt.Println(r.AblationAlpha([]float64{2, 4, 8, 16}).Format())
		fmt.Println(r.AblationKernels([]int{2, 5, 9}).Format())
	}
	if all || *f6 {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		for ci := range r.Suite {
			files, err := r.RenderCase(ci, *outDir)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("Figure 6: wrote %s\n", strings.Join(files, ", "))
		}
		fmt.Println()
	}
	fmt.Printf("# total wall time: %s\n", time.Since(start).Round(time.Second))
}
