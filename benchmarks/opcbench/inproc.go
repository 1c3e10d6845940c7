package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// inprocRep is one child process: a repetition of an in-process workload.
type inprocRep struct {
	childReport
	setupS    float64 // harness exec → child ready for the timed call
	peakRSSMB float64
}

func spawnChild(o options, dir string, traced bool, workers int) (*inprocRep, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-child-dir", dir,
		"-child-workers", fmt.Sprint(workers)}
	if traced {
		args = append(args, "-trace", "1")
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	spawn := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %s: %w", dir, err)
	}
	rep := &inprocRep{}
	if err := json.Unmarshal(out.Bytes(), &rep.childReport); err != nil {
		return nil, fmt.Errorf("child %s: report: %w", dir, err)
	}
	rep.setupS = float64(rep.ReadyUnixNano-spawn.UnixNano()) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.peakRSSMB = float64(ru.Maxrss) / 1024
	}
	return rep, nil
}

// runInprocWorkload measures one of the three server.RunSpec workloads.
// Untraced, it repeats the workload in fresh children until the time is
// used. Traced, it alternates a traced and an untraced child (their
// ratio is the tracing overhead) and, for the two-worker workload, adds
// the one-worker reference its shots must equal.
func runInprocWorkload(o options, dir string, start time.Time, res *result, c *checker, tl *traceLog) error {
	plan, err := planInproc(o.workload, o.seed, o.sizes())
	if err != nil {
		return err
	}
	var (
		reps    []*inprocRep // every child, for the output checks
		timed   []*inprocRep // the children the medians are taken over
		plain   []*inprocRep // untraced children of a traced run
		host    = hostRun{workload: o.workload}
		ref     *inprocRep
		longest time.Duration
	)
	child := func(name string, traced bool, workers int) (*inprocRep, error) {
		rep, err := spawnChild(o, filepath.Join(dir, name), traced, workers)
		if err == nil {
			reps = append(reps, rep)
		}
		return rep, err
	}
	for i := 0; i == 0 || budgetLeft(o, start, longest); i++ {
		t := time.Now()
		sampler := startHostSampler()
		rep, err := child(fmt.Sprintf("rep%02d", i), o.trace, 0)
		host.add(sampler.reading())
		if err != nil {
			return err
		}
		timed = append(timed, rep)
		if o.trace {
			tl.add(rep.Cold.Spans)
			p, err := child(fmt.Sprintf("plain%02d", i), false, 0)
			if err != nil {
				return err
			}
			plain = append(plain, p)
		}
		longest = max(longest, time.Since(t))
		if o.trace && plan.refWorkers > 0 && ref == nil {
			// Traced too: its tile spans give the one-worker overhead.
			if ref, err = child("ref", true, plan.refWorkers); err != nil {
				return err
			}
		}
	}

	if o.corrupt {
		if err := flipByte(filepath.Join(reps[0].Cold.Dir, "shots.csv")); err != nil {
			return err
		}
	}
	spec, err := parseSpec(plan.spec)
	if err != nil {
		return err
	}
	dx := float64(plan.layout.TileNM) / float64(spec.GridN)
	var shas []string
	for i, rep := range reps {
		passes := append([]passReport{rep.Cold}, rep.Warm...)
		if rep.DiskWarm != nil {
			passes = append(passes, *rep.DiskWarm)
		}
		for k, p := range passes {
			what := fmt.Sprintf("%s child %d pass %d", o.workload, i, k)
			csv, err := os.ReadFile(filepath.Join(p.Dir, "shots.csv"))
			if err != nil {
				return err
			}
			res.Attempted++
			ok := c.shotsOK(what, csv, dx)
			if p.OffPrimary > 0 {
				c.failf("%s: %d tiles left the primary path", what, p.OffPrimary)
				ok = false
			}
			if !ok {
				res.Failed++
			}
			shas = append(shas, sha(csv))
		}
		if plan.cache {
			if rep.Cold.CacheMiss != plan.wantMisses || rep.Cold.CacheHits != plan.wantHits {
				c.failf("%s child %d: cold pass had %d misses and %d hits, want exactly %d and %d",
					o.workload, i, rep.Cold.CacheMiss, rep.Cold.CacheHits, plan.wantMisses, plan.wantHits)
			}
			for k, p := range passes[1:] {
				if p.CacheMiss != 0 {
					c.failf("%s child %d: warm pass %d missed the cache %d times", o.workload, i, k, p.CacheMiss)
				}
			}
		}
	}
	// One list: repetitions, warm and disk-warm passes and the
	// one-worker reference must all produce the same bytes.
	c.sameSHA(o.workload, shas)

	if !o.trace {
		factor, keep, noisy := host.factors()
		var rawWall sample
		for i, rep := range timed {
			if !keep[i] {
				continue
			}
			rawWall = append(rawWall, rep.Cold.WallS)
			res.set("setup_s", rep.setupS*factor[i])
			res.set("wall_s", rep.Cold.WallS*factor[i])
			res.set("cpu_s", rep.Cold.CPUS*factor[i])
			res.set("first_tile_s", rep.Cold.FirstTileS*factor[i])
			res.set("peak_rss_mb", rep.peakRSSMB)
		}
		qsim, err := qualitySim()
		if err != nil {
			return err
		}
		q, err := quality(qsim, plan.layout, filepath.Join(reps[0].Cold.Dir, "mask.pgm"))
		if err != nil {
			return err
		}
		res.set("shots", float64(reps[0].Cold.Shots))
		res.set("quality_nm2", q)
		c.checkReference(o.benchDir, o.workload, o.seed, float64(reps[0].Cold.Shots), q)
		res.notef("%d repetitions, %d left out as noisy; times divided by the host slowdown (median %.3f); unscaled wall_s median %.4f",
			len(timed), noisy, host.report(res), median(rawWall))
		if plan.cache {
			var warm sample
			for _, rep := range timed {
				for _, w := range rep.Warm {
					warm = append(warm, w.WallS*1e3)
				}
			}
			res.notef("warm pass median %.2f ms over %d passes; disk-warm pass %.2f ms", median(warm), len(warm), timed[0].DiskWarm.WallS*1e3)
		}
		return nil
	}

	host.report(res)
	var tracedWall, plainWall sample
	for i, rep := range timed {
		cold := rep.Cold
		tracedWall = append(tracedWall, cold.WallS)
		plainWall = append(plainWall, plain[i].Cold.WallS)
		serial := cold
		if ref != nil {
			serial = ref.Cold
		}
		res.setFlow(cold, serial)
		if ref != nil {
			res.set("flow.par_efficiency", ref.Cold.WallS/(float64(spec.TileWorkers)*cold.WallS))
		}
		if plan.cache {
			res.set("wcache.hit_ratio_cold", float64(cold.CacheHits)/float64(cold.CacheHits+cold.CacheMiss))
			hits, lookups := 0, 0
			for _, w := range rep.Warm {
				res.set("flow.warm_wall_ms", w.WallS*1e3)
				hits += w.CacheHits
				lookups += w.CacheHits + w.CacheMiss
			}
			res.set("wcache.hit_ratio_warm", float64(hits)/float64(lookups))
			res.set("flow.disk_warm_wall_ms", rep.DiskWarm.WallS*1e3)
		}
	}
	res.set("harness.traced_wall_s", tracedWall...)
	res.set("harness.trace_overhead_ratio", median(tracedWall)/median(plainWall))
	return nil
}

// flipByte corrupts a file in place.
func flipByte(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	b[len(b)/2] ^= 0x01
	return os.WriteFile(path, b, 0o644)
}
