package service

import (
	"bytes"
	"testing"

	"backdroid/internal/appgen"
	"backdroid/internal/core"
	"backdroid/internal/dexdump"
	"backdroid/internal/service/journal"
	"backdroid/internal/simtime"
)

// TestSchedulerSettledResubmission pins the settled-tier contract: the
// second submission of one (app, options) pair performs zero engine work
// — no disassembly, no index builds, no analyzed methods — charged one
// flat settled-lookup unit, and its report is bitwise-identical to the
// cold run's in canonical encoding.
func TestSchedulerSettledResubmission(t *testing.T) {
	reports := NewReportStore(0)
	s := New(Config{Workers: 2, Reports: reports})
	defer s.Close()

	spec := testSpec(0)
	run := func() *core.Report {
		id, err := s.Submit(Job{Name: spec.Name, Source: sourceFor(spec), RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		return res.BackDroid
	}
	cold := run()
	settled := run()

	if cold.Stats.SettledLookups != 0 || cold.Stats.DumpLinesDisassembled == 0 {
		t.Fatalf("cold run stats = %+v, want a real engine run", cold.Stats)
	}
	st := settled.Stats
	if st.SettledLookups != 1 {
		t.Fatalf("settled stats = %+v, want exactly one settled lookup", st)
	}
	if st.WorkUnits != simtime.SettledLookupUnits {
		t.Fatalf("settled run charged %d units, want the flat %d",
			st.WorkUnits, simtime.SettledLookupUnits)
	}
	if st.DumpLinesDisassembled != 0 || st.Search.IndexBuilds != 0 || st.MethodsAnalyzed != 0 {
		t.Fatalf("settled stats = %+v, want zero engine work", st)
	}
	if !bytes.Equal(EncodeReport(cold), EncodeReport(settled)) {
		t.Fatal("settled report is not bitwise-identical to the cold run's")
	}
	if detectionKey(cold) != detectionKey(settled) {
		t.Fatal("settled serving changed the detection report")
	}
	if rs := reports.stats(); rs.Hits != 1 || rs.Misses != 1 || rs.Puts != 1 || rs.Entries != 1 {
		t.Fatalf("report store stats = %+v, want one miss, one put, one hit", rs)
	}
}

// TestSchedulerSettledEventReplayIdentity extends the streamed-vs-batch
// contract to settled servings: the replayed EventSink stream of a
// settled job carries exactly the stored report's sink pointers — the
// same objects the cold run streamed — bracketed by queued/started/done.
func TestSchedulerSettledEventReplayIdentity(t *testing.T) {
	events := make(chan Event, 256)
	reports := NewReportStore(0)
	s := New(Config{Workers: 1, Reports: reports, Events: events})

	spec := testSpec(1)
	results := make(map[JobID]*core.Report)
	var ids []JobID
	for i := 0; i < 2; i++ {
		id, err := s.Submit(Job{Name: spec.Name, Source: sourceFor(spec), RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		results[id] = res.BackDroid
	}
	s.Close()
	close(events)

	cold, settled := results[ids[0]], results[ids[1]]
	if settled.Stats.SettledLookups != 1 {
		t.Fatalf("second job stats = %+v, want a settled serving", settled.Stats)
	}
	// The settled copy shares the cold report's sink pointers: the store
	// holds the cold run's report itself.
	if len(cold.Sinks) == 0 || len(cold.Sinks) != len(settled.Sinks) {
		t.Fatalf("sink counts diverged: cold %d, settled %d", len(cold.Sinks), len(settled.Sinks))
	}
	for j := range cold.Sinks {
		if cold.Sinks[j] != settled.Sinks[j] {
			t.Fatalf("settled sink %d is not the stored cold sink", j)
		}
	}

	streamed := make(map[JobID][]Event)
	for ev := range events {
		streamed[ev.Job] = append(streamed[ev.Job], ev)
	}
	for _, id := range ids {
		evs := streamed[id]
		if len(evs) != len(results[id].Sinks)+3 {
			t.Fatalf("job %d emitted %d events, want queued/started/%d sinks/done",
				id, len(evs), len(results[id].Sinks))
		}
		if evs[0].Kind != EventQueued || evs[1].Kind != EventStarted || evs[len(evs)-1].Kind != EventDone {
			t.Fatalf("job %d event bracket = %v...%v", id, evs[0].Kind, evs[len(evs)-1].Kind)
		}
		for j, ev := range evs[2 : len(evs)-1] {
			if ev.Kind != EventSink || ev.Sink != results[id].Sinks[j] {
				t.Fatalf("job %d streamed sink %d is not its batch report's", id, j)
			}
		}
	}
	// Exactly one terminal done per job, and the settled done carries the
	// flat lookup charge.
	doneEv := streamed[ids[1]][len(streamed[ids[1]])-1]
	if doneEv.Result == nil || doneEv.Result.BackDroid.Stats.WorkUnits != simtime.SettledLookupUnits {
		t.Fatalf("settled done event = %+v, want the flat settled charge", doneEv)
	}
}

// TestSchedulerSettledDistinctOptionsMiss pins fingerprint separation end
// to end: the same app under a different MaxDepth is a different content
// address, so it re-runs the engine instead of aliasing the settled entry.
func TestSchedulerSettledDistinctOptionsMiss(t *testing.T) {
	reports := NewReportStore(0)
	spec := testSpec(2)

	runWith := func(depth int) *core.Report {
		opts := core.DefaultOptions()
		opts.MaxDepth = depth
		s := New(Config{Workers: 1, Reports: reports, Options: &opts})
		defer s.Close()
		id, err := s.Submit(Job{Name: spec.Name, Source: sourceFor(spec), RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		return res.BackDroid
	}
	first := runWith(25)
	second := runWith(24)
	if second.Stats.SettledLookups != 0 {
		t.Fatalf("different MaxDepth served settled: %+v", second.Stats)
	}
	if first.Stats.SettledLookups != 0 {
		t.Fatalf("first run served settled from an empty store: %+v", first.Stats)
	}
	if rs := reports.stats(); rs.Entries != 2 || rs.Hits != 0 {
		t.Fatalf("report store stats = %+v, want two distinct entries, no hits", rs)
	}
}

// TestReportStoreJournalRecovery pins settled-tier durability: a report
// journaled by one process is recovered by the next, which then serves
// the resubmission with zero engine work and an identical encoding.
func TestReportStoreJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(3)

	j1, _, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rs1 := NewReportStore(0)
	rs1.AttachJournal(j1)
	s1 := New(Config{Workers: 1, Reports: rs1})
	id, err := s1.Submit(Job{Name: spec.Name, Source: sourceFor(spec), RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s1.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	cold := res.BackDroid
	s1.Close()
	if st := rs1.stats(); st.Journaled != 1 || st.Skipped != 0 {
		t.Fatalf("report store stats after cold run = %+v, want one journaled report", st)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh store over the reopened journal.
	j2, _, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	rs2 := NewReportStore(0)
	rs2.AttachJournal(j2)
	if n := rs2.Recover(); n != 1 {
		t.Fatalf("Recover = %d, want 1", n)
	}
	if st := rs2.stats(); st.Recovered != 1 || st.Entries != 1 || st.Damaged != 0 {
		t.Fatalf("report store stats after recovery = %+v", st)
	}

	s2 := New(Config{Workers: 1, Reports: rs2})
	defer s2.Close()
	id2, err := s2.Submit(Job{Name: spec.Name, Source: sourceFor(spec), RunBackDroid: true})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Wait(id2)
	if err != nil {
		t.Fatal(err)
	}
	settled := res2.BackDroid
	if settled.Stats.SettledLookups != 1 || settled.Stats.DumpLinesDisassembled != 0 ||
		settled.Stats.Search.IndexBuilds != 0 {
		t.Fatalf("post-restart resubmission stats = %+v, want a settled serving", settled.Stats)
	}
	if !bytes.Equal(EncodeReport(cold), EncodeReport(settled)) {
		t.Fatal("journal-recovered report is not bitwise-identical to the cold run's")
	}
}

// TestReportStoreEvictionAndRefresh pins the LRU byte-budget mechanics on
// hand-built reports: refreshes never duplicate, eviction drops the
// least-recently-used entry, and an entry larger than the whole budget is
// never admitted.
func TestReportStoreEvictionAndRefresh(t *testing.T) {
	small := codecTestReport()
	size := int64(len(EncodeReport(small)))
	rs := NewReportStore(2*size + size/2) // room for two entries, not three

	k := func(i uint64) ReportKey { return ReportKey{App: i, Options: i} }
	rs.Put(k(1), small)
	rs.Put(k(1), small) // refresh, not a second entry
	rs.Put(k(2), small)
	if st := rs.stats(); st.Entries != 2 || st.Puts != 2 || st.Refreshes != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want two entries and one refresh", st)
	}
	// Touch key 1 so key 2 is the LRU victim of the next insert.
	if _, ok := rs.Get(k(1)); !ok {
		t.Fatal("present key missed")
	}
	rs.Put(k(3), small)
	if st := rs.stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want one eviction", st)
	}
	if _, ok := rs.Get(k(2)); ok {
		t.Fatal("LRU victim survived the byte budget")
	}
	if _, ok := rs.Get(k(1)); !ok {
		t.Fatal("recently-used entry evicted out of order")
	}

	// Oversized: an encoding larger than the whole budget is refused.
	tiny := NewReportStore(4)
	tiny.Put(k(9), small)
	if st := tiny.stats(); st.Entries != 0 || st.Puts != 0 {
		t.Fatalf("oversized report admitted: %+v", st)
	}

	// Encoded serves the canonical bytes without touching hit counters.
	pre := rs.stats()
	enc, ok := rs.Encoded(k(1))
	if !ok || !bytes.Equal(enc, EncodeReport(small)) {
		t.Fatal("Encoded did not return the canonical encoding")
	}
	if post := rs.stats(); post.Hits != pre.Hits || post.Misses != pre.Misses {
		t.Fatal("Encoded moved the hit/miss counters")
	}
}

// TestSchedulerSettledVsDeltaAddressing pins the interplay rule: the
// settled key is taken before the delta base is injected, so the second
// cold analysis of an updated app settles under its own address and a
// later resubmission of either version is a settled hit.
func TestSchedulerSettledVsDeltaAddressing(t *testing.T) {
	reports := NewReportStore(0)
	store := NewBundleStore(0)
	s := New(Config{Workers: 1, Reports: reports, Store: store})
	defer s.Close()

	v1 := testSpec(4)
	v2 := testSpec(4)
	v2.Seed += 7 // different content, same job name: an app update

	run := func(spec appgen.Spec) *core.Report {
		id, err := s.Submit(Job{Name: spec.Name, Source: sourceFor(spec), RunBackDroid: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		return res.BackDroid
	}
	r1 := run(v1)
	r2 := run(v2) // delta-eligible run over v1's bundle
	if r1.Stats.SettledLookups != 0 || r2.Stats.SettledLookups != 0 {
		t.Fatal("cold runs must not serve settled")
	}
	if rs := reports.stats(); rs.Entries != 2 {
		t.Fatalf("report store stats = %+v, want one entry per version", rs)
	}
	// Both versions resubmit as settled hits, each bitwise-identical to
	// its own cold run.
	again1, again2 := run(v1), run(v2)
	if again1.Stats.SettledLookups != 1 || again2.Stats.SettledLookups != 1 {
		t.Fatalf("resubmission stats = %+v / %+v, want settled hits", again1.Stats, again2.Stats)
	}
	if !bytes.Equal(EncodeReport(r1), EncodeReport(again1)) ||
		!bytes.Equal(EncodeReport(r2), EncodeReport(again2)) {
		t.Fatal("settled replay of an updated app diverged from its cold run")
	}
	app1, _, err := appgen.Generate(v1)
	if err != nil {
		t.Fatal(err)
	}
	app2, _, err := appgen.Generate(v2)
	if err != nil {
		t.Fatal(err)
	}
	if dexdump.AppFingerprint(app1.Dexes) == dexdump.AppFingerprint(app2.Dexes) {
		t.Fatal("update specs must differ in app fingerprint")
	}
}
