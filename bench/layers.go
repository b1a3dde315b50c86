package main

// The traced run's second half: the sessions the HTTP passes drove are
// replayed in this process through the public functions of each layer,
// with a span around every call, so that each layer gets a measured share
// of one fix. Nothing inside the program is instrumented; a layer whose
// calls are buried in another layer's function (the master probes inside
// TransFix) is measured by calling it directly on the same inputs.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/authtree"
	"repro/internal/fix"
	"repro/internal/master"
	"repro/internal/monitor"
	"repro/internal/relation"
	"repro/internal/rule"
	"repro/internal/suggest"
	"repro/internal/wal"
	"repro/pkg/certainfix"
)

// microOps is how many operations a per-call measurement averages over.
const microOps = 200

type layerMeasurer struct {
	cfg  runConfig
	data *dataset
	sys  *certainfix.System
	tr   *tracer
	ms   *metricSet
	work string
}

// fixed is how one replayed session ended.
type fixed struct {
	tuple  relation.Tuple
	rounds int
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// measure fills in every per-layer metric BENCHMARK.json lists, from the
// passes already run and from the replays it starts.
func (lm *layerMeasurer) measure(untraced, traced *fixStats, updates []update, loadCPU, recoverS float64) error {
	ms, tail := lm.ms, lm.cfg.tail
	nfix := float64(len(traced.fix))

	// certainfixd: what the client saw of each endpoint.
	ms.timing("certainfixd.begin_p50_us", traced.begin, 0.5, time.Microsecond, tail)
	ms.timing("certainfixd.answer_p50_us", durations(traced.answer), 0.5, time.Microsecond, tail)
	ms.timing("certainfixd.result_p50_us", traced.result, 0.5, time.Microsecond, tail)
	ms.add("certainfixd.req_bytes_per_fix", "B", float64(traced.sent)/nfix, len(traced.fix))
	ms.add("certainfixd.resp_bytes_per_fix", "B", float64(traced.got)/nfix, len(traced.fix))
	ms.add("certainfixd.non2xx", "count", float64(traced.evicted+traced.failed), len(traced.fix))

	sessions := min(numInputs, len(traced.fix))
	lib, err := lm.replayLibrary(sessions)
	if err != nil {
		return err
	}
	httpFix := us(sum(durations(traced.fix))) / nfix
	libFix := us(time.Duration(selfTimes(lm.tr.spans)["certainfix.fix"].Total)) / float64(sessions)
	ms.add("certainfixd.fix_us_per_fix", "us", httpFix, len(traced.fix))
	ms.add("certainfixd.http_overhead_us_per_fix", "us", httpFix-libFix, len(traced.fix))

	// An update's service time, from the moment it was sent: what the
	// server took, without the wait the schedule's backlog adds on top.
	service := make([]time.Duration, len(updates))
	late := make([]time.Duration, len(updates))
	for i, u := range updates {
		service[i], late[i] = u.service, u.late
	}
	if lm.cfg.wl.storm {
		ms.timing("certainfixd.update_p50_us", service, 0.5, time.Microsecond, tail)
		ms.timing("certainfixd.update_p99_us", service, 0.99, time.Microsecond, tail)
		ms.add("certainfixd.epoch_evicted_frac", "frac", ratio(float64(traced.evicted), float64(traced.resumed)), traced.resumed)
		ms.add("certainfixd.recover_ms", "ms", recoverS*1000, 1)
	} else {
		ms.add("certainfixd.update_p50_us", "us", 0, 0)
		ms.add("certainfixd.update_p99_us", "us", 0, 0)
		ms.add("certainfixd.epoch_evicted_frac", "frac", 0, 0)
		ms.add("certainfixd.recover_ms", "ms", 0, 0)
	}

	if err := lm.replayEngine(sessions, lib); err != nil {
		return err
	}
	if err := lm.masterLayouts(); err != nil {
		return err
	}
	if lm.cfg.wl.storm {
		if err := lm.writePath(); err != nil {
			return err
		}
	} else {
		for _, m := range writePathMetrics {
			ms.add(m.name, m.unit, 0, 0)
		}
	}

	if lm.cfg.wl.storm {
		ms.timing("loadgen.late_p99_ms", late, 0.99, time.Millisecond, tail)
	} else {
		ms.add("loadgen.late_p99_ms", "ms", 0, 0) // a closed loop has no schedule to be late for
	}
	ms.add("loadgen.cpu_frac", "frac", loadCPU, 1)
	untracedFix := us(sum(durations(untraced.fix))) / float64(len(untraced.fix))
	ms.add("trace.overhead_frac", "frac", (httpFix-untracedFix)/untracedFix, len(traced.fix))
	return nil
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// replayLibrary runs the first n generated sessions through pkg/certainfix
// exactly as the server's handlers do: every request resumes the session
// from its token, acts, and serializes it again.
func (lm *layerMeasurer) replayLibrary(n int) ([]fixed, error) {
	ctx, tr, sys := context.Background(), lm.tr, lm.sys
	out := make([]fixed, n)
	tokenMax := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		truth := lm.data.ds.Truths[i]
		root := tr.begin("certainfix.fix", -1, i)
		sp := tr.begin("certainfix.begin", root, i)
		sess, err := sys.Begin(ctx, lm.data.ds.Inputs[i])
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		marshal := func() ([]byte, error) {
			sp := tr.begin("certainfix.marshal", root, i)
			tok, err := sess.MarshalBinary()
			tr.end(sp)
			tokenMax = max(tokenMax, len(tok))
			return tok, err
		}
		resume := func(tok []byte) error {
			sp := tr.begin("certainfix.resume", root, i)
			sess, err = sys.Resume(ctx, tok)
			tr.end(sp)
			return err
		}
		tok, err := marshal()
		if err != nil {
			return nil, err
		}
		for !sess.Done() {
			attrs := sess.Suggested()
			values := make([]certainfix.Value, len(attrs))
			for j, p := range attrs {
				values[j] = truth[p]
			}
			if err := resume(tok); err != nil {
				return nil, err
			}
			sp := tr.begin("certainfix.provide", root, i)
			err := sess.Provide(attrs, values)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
			if tok, err = marshal(); err != nil {
				return nil, err
			}
		}
		if err := resume(tok); err != nil {
			return nil, err
		}
		sp = tr.begin("certainfix.result", root, i)
		res := sess.Result()
		tr.end(sp)
		sp = tr.begin("certainfix.result_json", root, i)
		_, err = json.Marshal(map[string]any{"result": res})
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		tr.end(root)
		out[i] = fixed{tuple: res.Tuple, rounds: res.Rounds}

		if lm.cfg.wl.storm {
			// The client's own check, outside the fix it checks.
			sp := tr.begin("certainfix.verify_fix", -1, i)
			err := certainfix.VerifyFix(lm.data.ds.Sigma, &res, res.Root)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("in-process fix of input %d: %w", i, err)
			}
		}
	}
	runtime.ReadMemStats(&after)

	times := selfTimes(tr.spans)
	per := func(name string) float64 { return us(time.Duration(times[name].Total)) / float64(n) }
	ms := lm.ms
	ms.add("certainfix.begin_us_per_fix", "us", per("certainfix.begin"), n)
	ms.add("certainfix.resume_us_per_fix", "us", per("certainfix.resume"), times["certainfix.resume"].Count)
	ms.add("certainfix.marshal_us_per_fix", "us", per("certainfix.marshal"), times["certainfix.marshal"].Count)
	ms.add("certainfix.provide_us_per_fix", "us", per("certainfix.provide"), times["certainfix.provide"].Count)
	ms.add("certainfix.result_us_per_fix", "us", per("certainfix.result"), n)
	ms.add("certainfix.result_json_us_per_fix", "us", per("certainfix.result_json"), n)
	ms.add("certainfix.token_bytes_max", "B", float64(tokenMax), n)
	ms.add("certainfix.allocs_per_fix", "count", float64(after.Mallocs-before.Mallocs)/float64(n), n)
	ms.add("certainfix.alloc_bytes_per_fix", "B", float64(after.TotalAlloc-before.TotalAlloc)/float64(n), n)
	vf := times["certainfix.verify_fix"]
	ms.add("certainfix.verify_fix_us", "us", ratio(us(time.Duration(vf.Total)), float64(vf.Count)), vf.Count)
	return out, nil
}

// engineMaster is the master data the engine replay probes: the layout
// the workload's server runs on.
func (lm *layerMeasurer) engineMaster() (*master.Data, error) {
	if lm.cfg.wl.arena {
		return master.LoadArena(lm.data.arenaPath, lm.data.ds.Sigma)
	}
	return lm.data.ds.Master, nil
}

// replayEngine runs the same sessions once more one layer down. It mirrors
// monitor.Session.Provide statement for statement, with the calls into
// suggest and fix made directly and wrapped in spans, so the round's self
// time is the monitor's own. The mirror must end every session on the
// tuple and round count the library replay ended on, or the run fails.
func (lm *layerMeasurer) replayEngine(n int, lib []fixed) error {
	sigma, tr := lm.data.ds.Sigma, lm.tr
	dm, err := lm.engineMaster()
	if err != nil {
		return err
	}
	mon, err := monitor.New(sigma, dm, monitor.Config{})
	if err != nil {
		return err
	}
	d, graph := mon.Deriver().Pin(), mon.DepGraph()
	arity := sigma.Schema().Arity()

	type state struct {
		t relation.Tuple
		z relation.AttrSet
	}
	var states []state // what each round presented to the master
	var rounds, autoFixed, calls, conflicts int
	for i := 0; i < n; i++ {
		truth := lm.data.ds.Truths[i]
		t := lm.data.ds.Inputs[i].Clone()
		var zSet, userSet, autoSet relation.AttrSet
		var witnesses []fix.Witness
		sug := mon.Regions()[0].Z
		noProgress, round := 0, 0
		for done := false; !done; {
			pv := tr.begin("monitor.provide", -1, i)
			for _, p := range sug {
				t[p] = truth[p]
				zSet.Add(p)
				userSet.Add(p)
			}
			round++
			states = append(states, state{t.Clone(), zSet.Clone()})

			var conflicted []int
			z := zSet.Positions()
			sp := tr.begin("suggest.consistent", pv, i)
			ok := d.ConsistentRow(z, t.Project(z))
			tr.end(sp)
			calls++
			if ok {
				sp := tr.begin("fix.transfix", pv, i)
				got, err := fix.TransFixTrace(graph, d.Master(), t, &zSet, &witnesses)
				tr.end(sp)
				autoSet.AddAll(got)
				if len(got) == 0 {
					noProgress++
				} else {
					noProgress = 0
				}
				if err != nil {
					var ce *fix.ConflictError
					if !errors.As(err, &ce) {
						return err
					}
					conflicted = append(conflicted, ce.Attr)
				}
			} else {
				sp := tr.begin("fix.assignments", pv, i)
				for b, vs := range fix.ApplicableAssignments(sigma, d.Master(), t, zSet) {
					if len(vs) > 1 {
						conflicted = append(conflicted, b)
					}
				}
				tr.end(sp)
			}
			conflicts += len(conflicted)
			// Provide snapshots the round for Result.PerRound.
			_, _, _ = userSet.Clone(), autoSet.Clone(), t.Clone()

			switch {
			case zSet.Len() == arity || round >= arity+1:
				done = true
			case noProgress >= 2:
				sug = nil
			default:
				sp := tr.begin("suggest.suggest", pv, i)
				s := d.Suggest(t, zSet).S
				tr.end(sp)
				calls++
				seen := make(map[int]bool, len(s)+len(conflicted))
				sug = make([]int, 0, len(s)+len(conflicted))
				for _, p := range append(append([]int(nil), s...), conflicted...) {
					if !seen[p] {
						seen[p] = true
						sug = append(sug, p)
					}
				}
			}
			if !done && len(sug) == 0 {
				for p := 0; p < arity; p++ {
					if !zSet.Has(p) {
						sug = append(sug, p)
					}
				}
			}
			tr.end(pv)
		}
		if !t.Equal(lib[i].tuple) || round != lib[i].rounds {
			return fmt.Errorf("input %d: layer replay ended on %v after %d rounds, pkg/certainfix on %v after %d",
				i, t, round, lib[i].tuple, lib[i].rounds)
		}
		rounds += round
		autoFixed += autoSet.Len()
	}

	times := selfTimes(tr.spans)
	per := func(name string) float64 { return us(time.Duration(times[name].Total)) / float64(n) }
	ms := lm.ms
	ms.add("monitor.self_us_per_fix", "us", us(time.Duration(times["monitor.provide"].SelfNS))/float64(n), times["monitor.provide"].Count)
	ms.add("monitor.rounds_per_fix", "count", float64(rounds)/float64(n), n)
	ms.add("monitor.autofixed_attrs_per_fix", "count", float64(autoFixed)/float64(n), n)
	ms.add("suggest.consistent_us_per_fix", "us", per("suggest.consistent"), times["suggest.consistent"].Count)
	ms.add("suggest.suggest_us_per_fix", "us", per("suggest.suggest"), times["suggest.suggest"].Count)
	ms.add("suggest.calls_per_fix", "count", float64(calls)/float64(n), n)
	ms.add("fix.transfix_us_per_fix", "us", per("fix.transfix")+per("fix.assignments"),
		times["fix.transfix"].Count+times["fix.assignments"].Count)
	ms.add("fix.conflicts_per_1k_fix", "count", 1000*float64(conflicts)/float64(n), n)

	// The probe census: which rule premises each round's state lets the
	// engine look up in the master, cascades included, and how many tuples
	// each lookup matches. The engine probes each of them several times
	// (ConsistentRow's closure, then HasMatch, RHSValues and MatchIDs in
	// TransFix); the census counts distinct lookups, from outside.
	var probes, multi, matches int
	for _, st := range states {
		p, m, k := probeCensus(sigma, d.Master(), st.t, st.z)
		probes, multi, matches = probes+p, multi+m, matches+k
	}
	ms.add("master.probes_per_fix", "count", float64(probes)/float64(n), n)
	ms.add("master.probe_multi_frac", "frac", ratio(float64(multi), float64(probes)), probes)
	ms.add("master.matches_per_probe", "count", ratio(float64(matches), float64(probes)), probes)
	return nil
}

// probeCensus closes the state (t, z) under the rules the way a cascade
// does and counts each rule's lookup once: lookups made, lookups matching
// more than one master tuple, and tuples matched.
func probeCensus(sigma *rule.Set, dm *master.Data, t relation.Tuple, z relation.AttrSet) (probes, multi, matches int) {
	t, cur := t.Clone(), z.Clone()
	probed := make([]bool, sigma.Len())
	for progress := true; progress; {
		progress = false
		for i, ru := range sigma.Rules() {
			if probed[i] || cur.Has(ru.RHS()) || !cur.ContainsSet(ru.PremiseSet()) || !ru.MatchesPattern(t) {
				continue
			}
			probed[i] = true
			ids := dm.MatchIDs(ru, t)
			probes++
			matches += len(ids)
			if len(ids) > 1 {
				multi++
			}
			if len(ids) > 0 {
				t[ru.RHS()] = dm.Tuple(ids[0])[ru.RHSM()]
				cur.Add(ru.RHS())
				progress = true
			}
		}
	}
	return probes, multi, matches
}

func ruleNamed(sigma *rule.Set, name string) *rule.Rule {
	for _, ru := range sigma.Rules() {
		if ru.Name() == name {
			return ru
		}
	}
	panic("cfbench: HOSP has no rule " + name)
}

// heapDelta runs build and returns how much live heap it left behind.
func heapDelta(build func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := build(); err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return 0, nil
	}
	return after.HeapAlloc - before.HeapAlloc, nil
}

// masterLayouts builds the workload's master in each index layout the
// repository carries and times the two probe shapes on each: a key that
// matches one tuple ((id, mCode) of rule h04) and a key that matches
// |Dm|/40 tuples spread over every shard (mCode of rule h16).
func (lm *layerMeasurer) masterLayouts() error {
	sigma, rel, ms := lm.data.ds.Sigma, lm.data.ds.Master.Relation(), lm.ms
	n := float64(rel.Len())

	var heap4 *master.Data
	start := time.Now()
	heapBytes, err := heapDelta(func() (err error) {
		heap4, err = master.NewForRules(rel, sigma, master.WithShards(shards))
		return err
	})
	buildS := time.Since(start).Seconds() // includes the two collections heapDelta forces
	if err != nil {
		return err
	}
	heap1, err := master.NewForRules(rel, sigma, master.WithShards(1))
	if err != nil {
		return err
	}
	path := filepath.Join(lm.work, "layouts.arena")
	start = time.Now()
	if err := heap4.SaveArenaFile(path, sigma); err != nil {
		return err
	}
	saveS := time.Since(start).Seconds()
	start = time.Now()
	arena4, err := master.LoadArena(path, sigma)
	if err != nil {
		return err
	}
	loadS := time.Since(start).Seconds()
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}

	single, multiKey := ruleNamed(sigma, "h04"), ruleNamed(sigma, "h16")
	keys := make([]relation.Tuple, 0, 1000)
	for i := 0; i < 1000; i++ {
		keys = append(keys, rel.Tuple(i*rel.Len()/1000))
	}
	probe := func(dm *master.Data, ru *rule.Rule, ops int) (ns, allocs float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < ops; i++ {
			if len(dm.MatchIDs(ru, keys[i%len(keys)])) == 0 {
				panic("cfbench: a master tuple's own key matched nothing")
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		return float64(elapsed.Nanoseconds()) / float64(ops), float64(after.Mallocs-before.Mallocs) / float64(ops)
	}
	layouts := []struct {
		name string
		dm   *master.Data
	}{{"heap_s1", heap1}, {"heap_s4", heap4}, {"arena_s4", arena4}}
	const singleOps, multiOps = 20000, 400
	for _, l := range layouts {
		ns, _ := probe(l.dm, single, singleOps)
		ms.add("master.probe_single_ns."+l.name, "ns", ns, singleOps)
	}
	for _, l := range layouts {
		ns, allocs := probe(l.dm, multiKey, multiOps)
		ms.add("master.probe_multi_ns."+l.name, "ns", ns, multiOps)
		if l.name == "heap_s4" {
			ms.add("master.probe_multi_allocs.heap_s4", "count", allocs, multiOps)
		}
	}
	ms.add("master.build_s", "s", buildS, 1)
	ms.add("master.arena_load_s", "s", loadS, 1)
	ms.add("master.arena_save_s", "s", saveS, 1)
	ms.add("master.heap_bytes_per_tuple", "B", float64(heapBytes)/n, 1)
	ms.add("master.arena_bytes_per_tuple", "B", float64(fi.Size())/n, 1)
	return nil
}

// writePathMetrics are the layers only the storm workload loads; the
// read-only workloads report them with a zero count.
var writePathMetrics = []struct{ name, unit string }{
	{"master.apply_delta_us", "us"},
	{"suggest.pin_us", "us"},
	{"master.apply_delta_auth_us", "us"},
	{"authtree.build_s", "s"},
	{"master.checkpoint_ms", "ms"},
	{"master.recover_ms", "ms"},
	{"certainfix.update_master_us", "us"},
	{"wal.append_us", "us"},
	{"wal.append_nosync_us", "us"},
	{"wal.bytes_per_delta", "B"},
	{"wal.replay_ms_per_1k", "ms"},
	{"authtree.prove_us", "us"},
	{"authtree.verify_us", "us"},
	{"authtree.proof_bytes", "B"},
}

// writePath measures, on the storm's own batches, every layer an update
// passes through: delta application with and without Merkle maintenance,
// the view rebuild a new epoch costs the next session, the log, the
// checkpoint and recovery, and proofs.
func (lm *layerMeasurer) writePath() error {
	sigma, rel, ms := lm.data.ds.Sigma, lm.data.ds.Master.Relation(), lm.ms
	batches := lm.data.batches[:microOps]
	timed := func(f func() error) (time.Duration, error) {
		start := time.Now()
		err := f()
		return time.Since(start), err
	}

	// Unauthenticated deltas, and the view a session pins after each.
	plain, err := master.NewForRules(rel, sigma, master.WithShards(shards))
	if err != nil {
		return err
	}
	ver := master.NewVersioned(plain)
	d := suggest.NewDeriverVersioned(sigma, ver)
	d.Pin()
	var apply, pin time.Duration
	for _, b := range batches {
		took, err := timed(func() error { _, err := ver.Apply(b.Adds, b.Deletes); return err })
		if err != nil {
			return err
		}
		apply += took
		took, _ = timed(func() error { d.Pin(); return nil })
		pin += took
	}
	ms.add("master.apply_delta_us", "us", us(apply)/microOps, microOps)
	ms.add("suggest.pin_us", "us", us(pin)/microOps, microOps)

	// Authenticated deltas: the same batches with the Merkle tree kept up.
	var tree *authtree.Tree
	treeTook, _ := timed(func() error { tree = authtree.Build(rel); return nil })
	auth, err := master.NewForRules(rel, sigma, master.WithShards(shards), master.WithAuth())
	if err != nil {
		return err
	}
	base := auth
	var applyAuth time.Duration
	for _, b := range batches {
		took, err := timed(func() (err error) { auth, err = auth.ApplyDelta(b.Adds, b.Deletes); return err })
		if err != nil {
			return err
		}
		applyAuth += took
	}
	ms.add("master.apply_delta_auth_us", "us", us(applyAuth)/microOps, microOps)
	ms.add("authtree.build_s", "s", treeTook.Seconds(), 1)

	// A checkpoint of the head after those deltas, then a recovery that
	// loads it and replays as many records again.
	ckpt, err := timed(func() error { return auth.SaveArenaFile(filepath.Join(lm.work, "ckpt.arena"), sigma) })
	if err != nil {
		return err
	}
	ms.add("master.checkpoint_ms", "ms", ckpt.Seconds()*1000, 1)
	dir := filepath.Join(lm.work, "wal-recover")
	opts := master.DurableOptions{Sync: wal.SyncNever, CheckpointEvery: -1, Auth: true}
	dv, err := master.OpenDurable(dir, func() (*master.Data, error) { return base, nil }, sigma, opts)
	if err != nil {
		return err
	}
	for _, b := range batches {
		if _, err := dv.Apply(b.Adds, b.Deletes); err != nil {
			return err
		}
	}
	if err := dv.Close(); err != nil {
		return err
	}
	recov, err := timed(func() error {
		dv, err = master.OpenDurable(dir, func() (*master.Data, error) {
			return nil, errors.New("the directory holds a checkpoint")
		}, sigma, opts)
		return err
	})
	if err != nil {
		return err
	}
	if got := dv.Current().Epoch(); got != microOps {
		return fmt.Errorf("in-process recovery reached epoch %d, want %d", got, microOps)
	}
	if err := dv.Close(); err != nil {
		return err
	}
	ms.add("master.recover_ms", "ms", recov.Seconds()*1000, 1)

	// The library's whole update: delta, Merkle, log with fsync, publish.
	var update time.Duration
	for _, b := range batches {
		took, err := timed(func() error { _, err := lm.sys.UpdateMaster(b.Adds, b.Deletes); return err })
		if err != nil {
			return err
		}
		update += took
	}
	ms.add("certainfix.update_master_us", "us", us(update)/microOps, microOps)

	// The log alone.
	appendAll := func(name string, policy wal.SyncPolicy) (*wal.Log, time.Duration, error) {
		l, err := wal.Open(filepath.Join(lm.work, name), wal.Options{Sync: policy})
		if err != nil {
			return nil, 0, err
		}
		took, err := timed(func() error {
			for i, b := range batches {
				if err := l.Append(wal.Record{Epoch: uint64(i + 1), Adds: b.Adds, Deletes: b.Deletes}); err != nil {
					return err
				}
			}
			return nil
		})
		return l, took, err
	}
	synced, took, err := appendAll("wal-sync", wal.SyncAlways)
	if err != nil {
		return err
	}
	defer synced.Close()
	ms.add("wal.append_us", "us", us(took)/microOps, microOps)
	nosync, took, err := appendAll("wal-nosync", wal.SyncNever)
	if err != nil {
		return err
	}
	defer nosync.Close()
	ms.add("wal.append_nosync_us", "us", us(took)/microOps, microOps)
	var frameBytes int
	for i, b := range batches {
		frame, err := wal.AppendFrame(nil, wal.Record{Epoch: uint64(i + 1), Adds: b.Adds, Deletes: b.Deletes})
		if err != nil {
			return err
		}
		frameBytes += len(frame)
	}
	ms.add("wal.bytes_per_delta", "B", float64(frameBytes)/microOps, microOps)
	took, err = timed(func() error {
		n, err := synced.Replay(0, func(wal.Record) error { return nil })
		if err == nil && n != microOps {
			err = fmt.Errorf("replayed %d records, want %d", n, microOps)
		}
		return err
	})
	if err != nil {
		return err
	}
	ms.add("wal.replay_ms_per_1k", "ms", took.Seconds()*1000*1000/microOps, microOps)

	// Proofs.
	root := tree.Root()
	var prove, verify time.Duration
	var proofBytes int
	for i := 0; i < microOps; i++ {
		t := rel.Tuple(i * rel.Len() / microOps)
		var p *authtree.Proof
		took, err := timed(func() error {
			var ok bool
			if p, ok = tree.Prove(t); !ok {
				return fmt.Errorf("no proof for master tuple %v", t)
			}
			return nil
		})
		if err != nil {
			return err
		}
		prove += took
		if took, err = timed(func() error { return authtree.VerifyInclusion(root, t, p) }); err != nil {
			return err
		}
		verify += took
		b, err := json.Marshal(p)
		if err != nil {
			return err
		}
		proofBytes += len(b)
	}
	ms.add("authtree.prove_us", "us", us(prove)/microOps, microOps)
	ms.add("authtree.verify_us", "us", us(verify)/microOps, microOps)
	ms.add("authtree.proof_bytes", "B", float64(proofBytes)/microOps, microOps)
	return nil
}
