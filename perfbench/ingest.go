package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/snapshot"
)

// ingest is a live feed into a durable mutable map (NYC-like, L-infinity),
// served with -mutable -snapshot-dir and the default coalescing and
// fsync-per-group-commit policy. One closed-loop writer posts balanced
// 16-op batches, each confined to one Zipf-popular zone; one open-loop
// reader sends heat batches at a fixed rate beside it. The run ends with
// SIGKILL and a restart with -load, and recovery is then timed on a fixed
// state (see timeRecovery). It is the only workload that loads delta, the
// slab patch, the WAL, and recovery.
const (
	ingestClients    = 1000
	ingestFacilities = 50
	// pairsPerBatch add/remove pairs make one 16-op batch.
	pairsPerBatch = 8
	// Every facilityPairEvery-th batch swaps its last client pair for a
	// facility close/open pair in the same zone. A fixed share, rather than a
	// random one, keeps the mix of cheap and expensive commits the same in
	// every run.
	facilityPairEvery = 8
	// zoneGrid x zoneGrid zones tile the city window; a zone is 5% of its
	// width and height. Zones with fewer than zoneMinClients clients are
	// never chosen.
	zoneGrid       = 20
	zoneMinClients = 8
	zoneSkew       = 1.1
	// zoneSeed fixes the sequence of zones the batches fall in; the seed
	// picks the points and the clients removed. With the zones drawn from
	// the seed, the map's state drifted differently in every run, and with it
	// the commit cost and the server's peak memory.
	zoneSeed = 16005
	// readRate heat batches per second, well under what the server can
	// answer even while it commits.
	readRate = 160.0
	// Recovery is timed on tailBatches batches of the fixed stream tailSeed
	// logged on top of the initial snapshot.
	tailBatches = 8
	tailSeed    = 16004
	recoveries  = 5
)

// nycWindow is the window the NYC-like city simulator draws from.
var nycWindow = geom.Rect{MinX: -74.15, MinY: 40.50, MaxX: -73.70, MaxY: 40.95}

// feed generates the mutation stream and mirrors the server's client and
// facility lists, swap-removes included, so each removal can name the
// index of a client currently in the batch's zone.
type feed struct {
	rng                 *rand.Rand
	batches             int // generated so far
	zipf                *rand.Zipf
	zones               []geom.Rect // by popularity rank, most popular first
	clients, facilities []heatmap.Point
}

func newFeed(seed int64, clients, facilities []heatmap.Point) *feed {
	f := &feed{
		rng:        rand.New(rand.NewSource(seed)),
		clients:    append([]heatmap.Point(nil), clients...),
		facilities: append([]heatmap.Point(nil), facilities...),
	}
	w, h := nycWindow.Width()/zoneGrid, nycWindow.Height()/zoneGrid
	for i := 0; i < zoneGrid; i++ {
		for j := 0; j < zoneGrid; j++ {
			z := geom.Rect{MinX: nycWindow.MinX + float64(i)*w, MinY: nycWindow.MinY + float64(j)*h}
			z.MaxX, z.MaxY = z.MinX+w, z.MinY+h
			if len(inZone(clients, z)) >= zoneMinClients {
				f.zones = append(f.zones, z)
			}
		}
	}
	// Popularity follows density: the zone with the most clients is the
	// most popular. The ranking is part of the fixed map, not of the seed.
	sort.SliceStable(f.zones, func(i, j int) bool {
		return len(inZone(clients, f.zones[i])) > len(inZone(clients, f.zones[j]))
	})
	f.zipf = rand.NewZipf(rand.New(rand.NewSource(zoneSeed)), zoneSkew, 1, uint64(len(f.zones)-1))
	return f
}

func inZone(ps []heatmap.Point, z geom.Rect) []int {
	var out []int
	for i, p := range ps {
		if z.Contains(p) {
			out = append(out, i)
		}
	}
	return out
}

// mutation is one POST /mutations batch.
type mutation struct {
	deltas []heatmap.Delta
	body   []byte
	ops    int
}

type opJSON struct {
	AddClients       []pointJSON `json:"add_clients,omitempty"`
	RemoveClients    []int       `json:"remove_clients,omitempty"`
	AddFacilities    []pointJSON `json:"add_facilities,omitempty"`
	RemoveFacilities []int       `json:"remove_facilities,omitempty"`
}

// next generates the next batch against the mirrored lists, without
// applying it: apply does that once the server acknowledges it.
func (f *feed) next() mutation {
	z := f.zones[f.zipf.Uint64()]
	cl := append([]heatmap.Point(nil), f.clients...)
	f.batches++
	facPair := f.batches%facilityPairEvery == 0
	var mu mutation
	var ops []opJSON
	for k := 0; k < pairsPerBatch; k++ {
		p := uniformIn(f.rng, z, 1)[0]
		if facPair && k == pairsPerBatch-1 {
			j := nearest(f.facilities, z.Center())
			mu.deltas = append(mu.deltas, heatmap.Delta{RemoveFacilities: []int{j}, AddFacilities: []heatmap.Point{p}})
			ops = append(ops, opJSON{RemoveFacilities: []int{j}, AddFacilities: toJSONPoints([]heatmap.Point{p})})
			continue
		}
		cands := inZone(cl, z)
		var idx int
		if len(cands) > 0 {
			idx = cands[f.rng.Intn(len(cands))]
		} else {
			idx = f.rng.Intn(len(cl))
		}
		cl = swapRemove(cl, idx)
		cl = append(cl, p)
		mu.deltas = append(mu.deltas, heatmap.Delta{RemoveClients: []int{idx}, AddClients: []heatmap.Point{p}})
		ops = append(ops, opJSON{RemoveClients: []int{idx}, AddClients: toJSONPoints([]heatmap.Point{p})})
	}
	mu.ops = 2 * pairsPerBatch
	body, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		panic(err) // finite points always encode
	}
	mu.body = body
	return mu
}

// apply mirrors the server's set maintenance for an acknowledged batch
// (internal/delta: client removals, client additions, facility removals,
// facility additions; every removal swap-removes).
func (f *feed) apply(ds []heatmap.Delta) {
	for _, d := range ds {
		for _, i := range d.RemoveClients {
			f.clients = swapRemove(f.clients, i)
		}
		f.clients = append(f.clients, d.AddClients...)
		for _, j := range d.RemoveFacilities {
			f.facilities = swapRemove(f.facilities, j)
		}
		f.facilities = append(f.facilities, d.AddFacilities...)
	}
}

func swapRemove(ps []heatmap.Point, i int) []heatmap.Point {
	last := len(ps) - 1
	ps[i] = ps[last]
	return ps[:last]
}

func nearest(ps []heatmap.Point, c heatmap.Point) int {
	best, bestD := 0, math.Inf(1)
	for i, p := range ps {
		if d := math.Max(math.Abs(p.X-c.X), math.Abs(p.Y-c.Y)); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// mutationsAck is the part of a POST /mutations answer the benchmark reads.
type mutationsAck struct {
	Version      uint64  `json:"version"`
	GroupBatches int     `json:"group_batches"`
	QueueMS      float64 `json:"queue_ms"`
	CommitMS     float64 `json:"commit_ms"`
}

func runIngest(b *bench) error {
	clients, facilities := cityMap(heatmap.NewYorkLike, ingestClients, ingestFacilities, ingestMapSeed)
	if err := writeCSV(b.path("clients.csv"), clients); err != nil {
		return err
	}
	if err := writeCSV(b.path("facilities.csv"), facilities); err != nil {
		return err
	}
	args := []string{"-clients-csv", b.path("clients.csv"), "-facilities-csv", b.path("facilities.csv"),
		"-metric", "linf", "-mutable"}
	snapDir := func(i int) string { return b.path(fmt.Sprintf("snap%d", i)) }
	p, err := b.setUp(args, func(i int) []string { return []string{"-snapshot-dir", snapDir(i)} })
	if err != nil {
		return err
	}
	dir := snapDir(setups - 1)
	writer, reader := newConn(p), newConn(p)
	defer writer.close()
	defer reader.close()
	var st statsJSON
	if err := b.getJSON(writer, "/stats", &st); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed + 1))
	reads := make([]readBatch, int(readRate*b.timed.Seconds())+1)
	for i := range reads {
		reads[i] = newReadBatch(uniformIn(rng, st.bounds(), batchPoints))
	}
	probe := newReadBatch(uniformIn(rng, st.bounds(), batchPoints))
	f := newFeed(b.seed, clients, facilities)

	var (
		acked   []mutation
		lat     []time.Duration
		acks    []mutationsAck
		ackedOp int
	)
	post := func(mu mutation) (time.Duration, bool) {
		r := writer.do("POST", "/mutations", mu.body)
		if !b.count(r) {
			return 0, false
		}
		var ack mutationsAck
		if err := json.Unmarshal(r.body, &ack); err != nil {
			b.mismatch("undecodable mutation answer: %v", err)
			return 0, false
		}
		if want := uint64(len(acked)) + 2; ack.Version != want {
			b.mismatch("mutation acked at version %d, want %d", ack.Version, want)
		}
		f.apply(mu.deltas)
		acked = append(acked, mu)
		acks = append(acks, ack)
		return r.latency, true
	}
	ph, err := startPhase(p)
	if err != nil {
		return err
	}
	ol := &openLoop{rate: readRate}
	wait := ol.start(reader, "/heat/batch", reads, ph.start, b.timed, false)
	for time.Since(ph.start) < b.timed {
		mu := f.next()
		if d, ok := post(mu); ok {
			lat = append(lat, d)
			ackedOp += mu.ops
		}
	}
	elapsed := time.Since(ph.start)
	wait()
	if err := ph.finish(b, len(lat)); err != nil {
		return err
	}
	ol.merge(b, "ingest")
	if b.failed > 0 {
		return fmt.Errorf("%d requests failed; the mirrored state is no longer known", b.failed)
	}
	want, err := expect(f, uint64(len(acked))+1, probe)
	if err != nil {
		return err
	}
	if err := b.verify(writer, want, "before kill -9"); err != nil {
		return err
	}
	rss, err := p.peakRSSMB()
	if err != nil {
		return err
	}
	p.kill()
	rp, restart, err := b.launch(append(append([]string(nil), args...), "-snapshot-dir", dir, "-load"))
	if err != nil {
		return err
	}
	c := newConn(rp)
	err = b.verify(c, want, "after kill -9 and -load")
	c.close()
	rp.kill()
	if err != nil {
		return err
	}
	recovery, tail, err := b.timeRecovery(args, clients, facilities, probe)
	if err != nil {
		return err
	}

	b.setE2E("rss_peak_mb", "MB", rss, 1)
	b.latencyMetrics(b.setE2E, "op_p50_ms", "op_p90_ms", 0.90, lat)
	b.setE2E("ops_per_s", "1/s", float64(ackedOp)/elapsed.Seconds(), ackedOp)
	b.setE2E("aux_p50_ms", "ms", 1000*median(recovery), len(recovery))
	b.latencyMetrics(b.setNamed, "commit_p50_ms", "commit_p90_ms", 0.90, lat)
	b.setNamed("mutations_per_s", "1/s", float64(ackedOp)/elapsed.Seconds(), ackedOp)
	b.setNamed("recover_s", "s", median(recovery), len(recovery))
	b.setNamed("restart_s", "s", restart.Seconds(), 1)
	b.note("ingest writer: closed loop, 1 connection, %d-op batches in %d zones (Zipf %.1f), %d acked; kill -9 + -load of the whole WAL took %.3f s; recovery timed %d times on %d fixed batches",
		2*pairsPerBatch, len(f.zones), zoneSkew, len(acked), restart.Seconds(), recoveries, tailBatches)

	var queue, commitMS, gap, group []float64
	for i, a := range acks {
		queue = append(queue, a.QueueMS)
		commitMS = append(commitMS, a.CommitMS)
		gap = append(gap, ms(lat[i])-a.QueueMS-a.CommitMS)
		group = append(group, float64(a.GroupBatches))
	}
	b.setLayer("server.queue_ms", "ms", median(queue), len(queue))
	b.setLayer("server.commit_ms", "ms", median(commitMS), len(commitMS))
	b.setLayer("server.ack_gap_ms", "ms", median(gap), len(gap))
	b.setLayer("server.group_batches", "count", mean(group), len(group))
	if !b.traced {
		return nil
	}
	return b.replayIngest(clients, facilities, acked, tail, reads[:len(ol.latency)], lat, ol.latency, want)
}

// expected is the state a server must report: its version and set sizes,
// and the answers of a fresh Build over the mirrored sets at the probe
// points.
type expected struct {
	version             uint64
	clients, facilities int
	probe               readBatch
	heats               []float64
	rnns                [][]int
}

func expect(f *feed, version uint64, probe readBatch) (expected, error) {
	m, err := heatmap.Build(heatmap.Config{Clients: f.clients, Facilities: f.facilities, Metric: heatmap.LInf})
	if err != nil {
		return expected{}, err
	}
	heats, rnns := m.HeatAtBatch(probe.pts)
	return expected{version, len(f.clients), len(f.facilities), probe, heats, rnns}, nil
}

// verify checks the server behind c against e.
func (b *bench) verify(c *conn, e expected, when string) error {
	var st statsJSON
	if err := b.getJSON(c, "/stats", &st); err != nil {
		return err
	}
	if st.Version != e.version || st.Clients != e.clients || st.Facilities != e.facilities {
		b.mismatch("%s: version %d, %d clients, %d facilities; want %d, %d, %d", when,
			st.Version, st.Clients, st.Facilities, e.version, e.clients, e.facilities)
	}
	r := c.do("POST", "/heat/batch", e.probe.body)
	if !b.count(r) {
		return fmt.Errorf("%s: probe batch failed", when)
	}
	if d := checkBatch(r.body, e.heats, e.rnns); d != "" {
		b.mismatch("%s: probe heats differ from a fresh Build: %s", when, d)
	}
	return nil
}

// timeRecovery times recovery on a state that is the same in every run: a
// fresh durable server logs tailBatches batches of the fixed stream tailSeed
// on top of its initial snapshot, is killed with SIGKILL, and is restarted
// with -load recoveries times, each checked. Timing the restart of the
// workload's own server instead would measure a WAL whose length and
// content depend on the seed and on how far the feed got. It returns the
// restart times in seconds and the batches logged.
func (b *bench) timeRecovery(args []string, clients, facilities []heatmap.Point, probe readBatch) ([]float64, []mutation, error) {
	dirArgs := append(append([]string(nil), args...), "-snapshot-dir", b.path("recovery"))
	p, _, err := b.launch(dirArgs)
	if err != nil {
		return nil, nil, err
	}
	c := newConn(p)
	f := newFeed(tailSeed, clients, facilities)
	var tail []mutation
	for i := 0; i < tailBatches; i++ {
		mu := f.next()
		if r := c.do("POST", "/mutations", mu.body); !b.count(r) {
			c.close()
			return nil, nil, fmt.Errorf("recovery feed: batch %d failed", i)
		}
		f.apply(mu.deltas)
		tail = append(tail, mu)
	}
	c.close()
	p.kill()
	want, err := expect(f, tailBatches+1, probe)
	if err != nil {
		return nil, nil, err
	}
	var times []float64
	for i := 0; i < recoveries; i++ {
		rp, d, err := b.launch(append(dirArgs, "-load"))
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
		c := newConn(rp)
		err = b.verify(c, want, fmt.Sprintf("recovery %d", i+1))
		c.close()
		rp.kill()
		if err != nil {
			return nil, nil, err
		}
	}
	return times, tail, nil
}

// replayIngest replays the run in-process under spans: the initial build
// and save, every acknowledged commit in order with the reads spread evenly
// between them, then the recovery scenario of timeRecovery (build and save
// afresh, log the fixed batches, recover from the replay's own snapshot and
// WAL). The replayed feed must end where the server ended, and the
// recovered map must answer as the map it recovers.
func (b *bench) replayIngest(clients, facilities []heatmap.Point, acked, tail []mutation, reads []readBatch,
	commitLat, readLat []time.Duration, want expected) error {
	tr := newTracer()
	defer tr.finish()
	s, wal, err := replaySetup(tr, clients, facilities, b.path("replay-feed"))
	if err != nil {
		return err
	}
	defer wal.Close()
	_, _, cells := s.m.SlabIndexStats()
	b.setLayer("pointloc.cells", "count", float64(cells), 1)
	b.setLayer("core.labelings", "count", float64(s.m.Stats().Labelings), 1)

	var reswept, events, rebuilt, patched, ops int
	var walBytes int64
	apply := func(s *served, mu mutation, wal *snapshot.WAL) (*served, error) {
		id := tr.begin("op.commit")
		ns, stats, grew, err := commit(tr, s, mu.deltas, wal)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		reswept += stats.EventsReswept
		events += stats.EventsTotal
		walBytes += grew
		ops += mu.ops
		if stats.Rebuilt {
			rebuilt++
		}
		if ns.patched {
			patched++
		}
		return ns, nil
	}
	ri := 0
	for i, mu := range acked {
		if s, err = apply(s, mu, wal); err != nil {
			return err
		}
		// The reads the open-loop reader sent, spread evenly over the commits.
		for end := (i + 1) * len(reads) / len(acked); ri < end; ri++ {
			id := tr.begin("op.read")
			query(tr, s, reads[ri].pts)
			tr.end(id)
		}
	}
	heats, rnns := s.m.HeatAtBatch(want.probe.pts)
	if !equalAnswers(heats, rnns, want.heats, want.rnns) {
		b.mismatch("replayed feed: probe answers differ from the server's final state")
	}

	rs, rwal, err := replaySetup(tr, clients, facilities, b.path("replay-recovery"))
	if err != nil {
		return err
	}
	defer rwal.Close()
	for _, mu := range tail {
		if rs, err = apply(rs, mu, rwal); err != nil {
			return err
		}
	}
	id := tr.begin("op.recover")
	rec, err := recoverMap(tr, b.path("replay-recovery.snap"), b.path("replay-recovery.wal"))
	tr.end(id)
	if err != nil {
		return err
	}
	heats, rnns = rs.m.HeatAtBatch(want.probe.pts)
	rh, rr := rec.m.HeatAtBatch(want.probe.pts)
	if rec.version != rs.version || !equalAnswers(rh, rr, heats, rnns) {
		b.mismatch("replayed recovery: version %d, want %d, or probe answers differ", rec.version, rs.version)
	}

	n := float64(len(acked) + len(tail))
	if events > 0 {
		b.setLayer("delta.reswept_frac", "ratio", float64(reswept)/float64(events), int(n))
	}
	b.setLayer("delta.rebuilt_frac", "ratio", float64(rebuilt)/n, int(n))
	b.setLayer("pointloc.patched_frac", "ratio", float64(patched)/n, int(n))
	b.setLayer("snapshot.wal_bytes_per_op", "B", float64(walBytes)/float64(ops), ops)
	return b.layerMetrics(tr, "op.commit", commitLat, readLat)
}

// replaySetup mirrors the start of a durable mutable server: build, publish,
// open the WAL and save the first snapshot (register and attachPersistence
// in internal/server/registry.go). Files are prefix.snap and prefix.wal.
func replaySetup(tr *tracer, clients, facilities []heatmap.Point, prefix string) (*served, *snapshot.WAL, error) {
	id := tr.begin("op.setup")
	defer tr.end(id)
	m, err := build(tr, clients, facilities, heatmap.LInf)
	if err != nil {
		return nil, nil, err
	}
	s, err := publish(tr, m, 1)
	if err != nil {
		return nil, nil, err
	}
	wal, _, err := snapshot.OpenWAL(prefix + ".wal")
	if err != nil {
		return nil, nil, err
	}
	if err := save(tr, s, prefix+".snap", wal); err != nil {
		wal.Close()
		return nil, nil, err
	}
	return s, wal, nil
}

func equalAnswers(h1 []float64, r1 [][]int, h2 []float64, r2 [][]int) bool {
	if len(h1) != len(h2) {
		return false
	}
	for i := range h1 {
		if h1[i] != h2[i] || !slices.Equal(r1[i], r2[i]) {
			return false
		}
	}
	return true
}
