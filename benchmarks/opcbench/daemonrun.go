package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runDaemonWorkload measures daemon_rule: repetitions of a fresh cfaopcd
// draining the job list, then every distinct spec once more in-process
// through server.RunSpec, whose bytes each daemon job must equal.
// The client-side timestamps are always taken; a traced run differs in
// keeping them as spans, so its repetitions alternate kept and dropped.
func runDaemonWorkload(o options, dir string, start time.Time, res *result, c *checker, tl *traceLog) error {
	if o.daemonBin == "" {
		return fmt.Errorf("%s needs -daemon <path to cfaopcd>", wlDaemon)
	}
	plan := planDaemon(o.seed, o.sizes())
	var (
		reps    []*daemonRep
		host    = hostRun{workload: wlDaemon}
		longest time.Duration
	)
	// A traced run needs one kept and one dropped repetition at least.
	for i := 0; i == 0 || (o.trace && i == 1) || budgetLeft(o, start, longest); i++ {
		t := time.Now()
		sampler := startHostSampler()
		rep, err := runDaemonRep(o.daemonBin, filepath.Join(dir, fmt.Sprintf("rep%02d", i)), plan)
		host.add(sampler.reading())
		if err != nil {
			return err
		}
		longest = max(longest, time.Since(t))
		reps = append(reps, rep)
	}
	if o.corrupt {
		shots := reps[0].Jobs[0].Shots
		shots[len(shots)/2] ^= 0x01
	}

	// The in-process reference: one server.RunSpec per distinct spec.
	layoutRoot := filepath.Join(dir, "ref-layouts")
	type refRun struct {
		pass passReport
		csv  []byte
		dx   float64 // nm per pixel of the job's grid
	}
	refRuns := map[string]*refRun{}
	qsim, err := qualitySim()
	if err != nil {
		return err
	}
	var qual float64
	for _, job := range plan.jobs {
		if refRuns[job.spec] != nil {
			continue
		}
		spec, err := parseSpec(job.spec)
		if err != nil {
			return err
		}
		if spec.Layout != "" {
			if err := os.MkdirAll(layoutRoot, 0o755); err != nil {
				return err
			}
			if err := writeLayout(filepath.Join(layoutRoot, spec.Layout), plan.layouts[spec.Layout]); err != nil {
				return err
			}
		}
		l, err := spec.ResolveLayout(layoutRoot)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("ref%02d", len(refRuns))
		pass, err := runPass(context.Background(), l, spec, filepath.Join(dir, name), nil, o.trace, name)
		if err != nil {
			return err
		}
		csv, err := os.ReadFile(filepath.Join(pass.Dir, "shots.csv"))
		if err != nil {
			return err
		}
		q, err := quality(qsim, l, filepath.Join(pass.Dir, "mask.pgm"))
		if err != nil {
			return err
		}
		qual += q
		refRuns[job.spec] = &refRun{pass: pass, csv: csv, dx: float64(l.TileNM) / float64(spec.GridN)}
		if o.trace && job.heavy && len(res.vals["flow.rule_job_s"]) == 0 {
			tl.add(pass.Spans)
			res.set("flow.rule_job_s", pass.WallS)
			res.setFlow(pass, pass)
		}
	}

	// Per-job checks: done, on the primary path, rule-clean, non-empty,
	// and byte-equal to the in-process run of the same spec.
	shots := 0
	for r, rep := range reps {
		for i := range rep.Jobs {
			j := &rep.Jobs[i]
			what := fmt.Sprintf("%s repetition %d job %d (%s)", wlDaemon, r, i, j.ID)
			res.Attempted++
			ref := refRuns[plan.jobs[i].spec]
			ok := true
			switch {
			case j.Err != "":
				c.failf("%s: %s", what, j.Err)
				ok = false
			case j.OffPrimary > 0:
				c.failf("%s: %d tiles left the primary path", what, j.OffPrimary)
				ok = false
			default:
				ok = c.shotsOK(what, j.Shots, ref.dx)
			}
			if !ok {
				res.Failed++
				continue
			}
			if !bytes.Equal(j.Shots, ref.csv) {
				c.failf("%s: shots differ from the in-process server.RunSpec bytes (%.12s vs %.12s)", what, sha(j.Shots), sha(ref.csv))
			}
			if r == 0 {
				shots += bytes.Count(j.Shots, []byte("\n")) - 1
			}
		}
	}

	if !o.trace {
		factor, keep, noisy := host.factors()
		var rawWall sample
		for r, rep := range reps {
			if !keep[r] {
				continue
			}
			rawWall = append(rawWall, rep.WallS)
			var firstTile sample
			for _, j := range rep.Jobs {
				firstTile = append(firstTile, (j.FirstTile - j.Post).Seconds())
			}
			res.set("setup_s", rep.SetupS*factor[r])
			res.set("wall_s", rep.WallS*factor[r])
			res.set("cpu_s", rep.CPUS*factor[r])
			res.set("first_tile_s", median(firstTile)*factor[r])
			res.set("peak_rss_mb", rep.PeakRSSMB)
		}
		res.set("shots", float64(shots))
		res.set("quality_nm2", qual)
		c.checkReference(o.benchDir, wlDaemon, o.seed, float64(shots), qual)
		res.notef("%d repetitions of %d jobs, %d left out as noisy; times divided by the host slowdown (median %.3f); unscaled wall_s median %.4f",
			len(reps), len(plan.jobs), noisy, host.report(res), median(rawWall))
		return nil
	}

	host.report(res)
	var tracedWall, plainWall sample
	for r, rep := range reps {
		if r%2 == 1 {
			plainWall = append(plainWall, rep.WallS)
			continue
		}
		tracedWall = append(tracedWall, rep.WallS)
		res.set("server.spawn_ms", rep.SpawnMS)
		events, rejected, reconnects := 0, 0, 0
		var small, heavy, queue, first, run, fetch, over sample
		for i := range rep.Jobs {
			j := &rep.Jobs[i]
			if j.ID == "" {
				rejected++
				continue
			}
			tl.add(daemonSpans(j))
			events += j.Events
			reconnects += j.Reconnects
			res.set("server.submit_ms", ms(j.Accepted-j.Post))
			queue = append(queue, ms(j.Running-j.Accepted))
			first = append(first, ms(j.FirstEvent-j.Post))
			run = append(run, ms(j.Terminal-j.Running))
			fetch = append(fetch, ms(j.Fetched-j.FetchStart))
			over = append(over, (j.Terminal-j.Running).Seconds()/refRuns[plan.jobs[i].spec].pass.WallS)
			if j.Heavy {
				heavy = append(heavy, (j.Fetched - j.Post).Seconds())
			} else {
				small = append(small, ms(j.Fetched-j.Post))
			}
		}
		res.set("server.queue_wait_ms_p50", median(queue))
		res.set("server.first_event_ms_p50", median(first))
		res.set("server.run_ms_p50", median(run))
		res.set("server.fetch_shots_ms_p50", median(fetch))
		res.set("server.small_job_ms", median(small))
		res.set("server.heavy_job_s", median(heavy))
		res.set("server.events_total", float64(events))
		res.set("server.events_per_s", float64(events)/rep.WallS)
		res.set("server.overhead_ratio", median(over))
		res.set("server.rejected", float64(rejected))
		res.set("server.sse_reconnects", float64(reconnects))
	}
	res.set("harness.traced_wall_s", tracedWall...)
	if len(plainWall) > 0 {
		res.set("harness.trace_overhead_ratio", median(tracedWall)/median(plainWall))
	}
	return nil
}
