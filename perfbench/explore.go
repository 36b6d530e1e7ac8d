package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/geom"
)

// explore is a read-only analyst session on a NYC-like L-infinity map: one
// closed-loop client asks four times for the best places to open a facility
// (the first time cold), then walks the tile pyramid, revisiting about a
// quarter of the tiles (so the tile cache serves some while the median tile
// is still a render), and reads the heat under each tile with batched point
// queries. It loads
// render, point location, optimal and the tile cache, and leaves delta, WAL
// and resweep idle.
const (
	exploreClients    = 5000
	exploreFacilities = 250
	// readsPerTile heat batches follow every tile request.
	readsPerTile = 2
	// revisitShare of the steps re-request one of the last revisitWindow
	// distinct tiles, which the server's 512-tile cache still holds.
	revisitShare  = 0.25
	revisitWindow = 32
	// optimalCalls GET /optimal?k=optimalK requests precede the timed phase.
	// The first pays the one-time face grouping and is reported on its own;
	// the median of the warm ones is the gated figure.
	optimalCalls = 4
	optimalK     = 3
	// checkEvery: without the traced replay, every checkEvery-th distinct
	// tile is re-rendered in-process and compared; with it, all are.
	checkEvery = 8
)

// exploreStep is one step of the walk: a tile, then the reads over it.
type exploreStep struct {
	t       tile
	revisit bool
	reads   []readBatch
}

// walker generates the tile walk from the seed.
type walker struct {
	rng     *rand.Rand
	world   geom.Rect
	data    geom.Rect
	pending [][]tile // per zoom level, shuffled, not yet visited
	recent  []tile
}

func newWalker(seed int64, world, data geom.Rect) *walker {
	w := &walker{rng: rand.New(rand.NewSource(seed)), world: world, data: data}
	w.refill()
	return w
}

// refill queues every tile of zoom 3 to 6 over the data, shuffled. A walk
// that has visited them all starts over; by then the 512-tile cache has
// long evicted the first ones.
func (w *walker) refill() {
	w.pending = w.pending[:0]
	for z := 3; z <= 6; z++ {
		ts := tilesOver(w.world, w.data, z)
		w.rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
		w.pending = append(w.pending, ts)
	}
}

func (w *walker) next() exploreStep {
	var st exploreStep
	if len(w.recent) >= 8 && w.rng.Float64() < revisitShare {
		st = exploreStep{t: w.recent[w.rng.Intn(len(w.recent))], revisit: true}
	} else {
		// Deeper levels are drawn more often, as a user zooming in would:
		// level i (zoom 3+i) has weight i+1.
		total := 0
		for i, ts := range w.pending {
			if len(ts) > 0 {
				total += i + 1
			}
		}
		if total == 0 {
			w.refill()
			return w.next()
		}
		pick := w.rng.Intn(total)
		for i, ts := range w.pending {
			if len(ts) == 0 {
				continue
			}
			if pick -= i + 1; pick < 0 {
				st.t = ts[len(ts)-1]
				w.pending[i] = ts[:len(ts)-1]
				break
			}
		}
		w.recent = append(w.recent, st.t)
		if len(w.recent) > revisitWindow {
			w.recent = w.recent[1:]
		}
	}
	area := tileBounds(w.world, st.t.z, st.t.x, st.t.y).Intersect(w.data)
	for i := 0; i < readsPerTile; i++ {
		st.reads = append(st.reads, newReadBatch(uniformIn(w.rng, area, batchPoints)))
	}
	return st
}

// exploreLog is what the untraced run observed, for the checks and the
// replay.
type exploreLog struct {
	steps    []exploreStep
	tileSHA  [][32]byte
	tileLat  []time.Duration
	readBody [][]byte // readsPerTile per step
	readLat  []time.Duration
	optBody  [][]byte
	optLat   []time.Duration
}

func runExplore(b *bench) error {
	clients, facilities := cityMap(heatmap.NewYorkLike, exploreClients, exploreFacilities, exploreMapSeed)
	if err := writeCSV(b.path("clients.csv"), clients); err != nil {
		return err
	}
	if err := writeCSV(b.path("facilities.csv"), facilities); err != nil {
		return err
	}
	p, err := b.setUp([]string{"-clients-csv", b.path("clients.csv"), "-facilities-csv", b.path("facilities.csv"), "-metric", "linf"}, nil)
	if err != nil {
		return err
	}
	c := newConn(p)
	defer c.close()
	var st statsJSON
	if err := b.getJSON(c, "/stats", &st); err != nil {
		return err
	}
	data := st.bounds()
	world := geom.RectFromCenter(data.Center(), math.Max(data.Width(), data.Height())/2)
	w := newWalker(b.seed, world, data)
	var steps []exploreStep
	for i := 0; i < int(200*b.timed.Seconds()); i++ {
		steps = append(steps, w.next())
	}

	// The optimal calls come first, so they always meet the same server
	// state: the freshly started map, before the walk's garbage and cache.
	lg := &exploreLog{}
	for i := 0; i < optimalCalls; i++ {
		r := c.do("GET", fmt.Sprintf("/optimal?k=%d", optimalK), nil)
		if !b.count(r) {
			return fmt.Errorf("optimal failed")
		}
		lg.optBody = append(lg.optBody, r.body)
		lg.optLat = append(lg.optLat, r.latency)
	}
	ph, err := startPhase(p)
	if err != nil {
		return err
	}
	for i := 0; time.Since(ph.start) < b.timed; i++ {
		if i == len(steps) {
			steps = append(steps, w.next())
		}
		s := steps[i]
		r := c.do("GET", s.t.path(), nil)
		if !b.count(r) {
			return fmt.Errorf("tile %v failed", s.t)
		}
		lg.steps = append(lg.steps, s)
		lg.tileSHA = append(lg.tileSHA, sha256.Sum256(r.body))
		lg.tileLat = append(lg.tileLat, r.latency)
		for _, rb := range s.reads {
			r := c.do("POST", "/heat/batch", rb.body)
			if !b.count(r) {
				return fmt.Errorf("heat batch failed")
			}
			lg.readBody = append(lg.readBody, r.body)
			lg.readLat = append(lg.readLat, r.latency)
		}
	}
	if err := ph.finish(b, len(lg.steps)); err != nil {
		return err
	}
	elapsed := time.Since(ph.start)
	if err := b.getJSON(c, "/stats", &st); err != nil {
		return err
	}
	rss, err := p.peakRSSMB()
	if err != nil {
		return err
	}
	p.kill()

	b.setE2E("rss_peak_mb", "MB", rss, 1)
	b.readMetrics(lg.readLat)
	b.latencyMetrics(b.setE2E, "op_p50_ms", "op_p90_ms", 0.90, lg.tileLat)
	b.setE2E("ops_per_s", "1/s", float64(len(lg.steps))/elapsed.Seconds(), len(lg.steps))
	warm := msList(lg.optLat[1:])
	b.setE2E("aux_p50_ms", "ms", median(warm), len(warm))
	b.latencyMetrics(b.setNamed, "tile_p50_ms", "tile_p90_ms", 0.90, lg.tileLat)
	b.setNamed("optimal_p50_ms", "ms", median(warm), len(warm))
	b.setNamed("optimal_cold_ms", "ms", ms(lg.optLat[0]), 1)
	b.setNamed("tiles_per_s", "1/s", float64(len(lg.steps))/elapsed.Seconds(), len(lg.steps))
	b.note("explore: closed loop, 1 client, 1 connection; %d x GET /optimal?k=%d, then steps of 1 tile + %d heat batches of %d points; %d steps",
		optimalCalls, optimalK, readsPerTile, batchPoints, len(lg.steps))
	if tot := st.Tiles.CacheHits + st.Tiles.CacheMisses; tot > 0 {
		b.setLayer("server.tile_cache_hit_frac", "ratio", float64(st.Tiles.CacheHits)/float64(tot), int(tot))
	}
	return b.replayExplore(clients, facilities, data, lg)
}

// replayExplore rebuilds the map in-process and checks the server's tiles,
// heat answers and optimal regions against it. With tracing on, it replays
// every operation of the run under spans and reports the per-layer metrics;
// without, it re-renders a sample of the tiles.
func (b *bench) replayExplore(clients, facilities []heatmap.Point, data geom.Rect, lg *exploreLog) error {
	var tr *tracer
	if b.traced {
		tr = newTracer()
		defer tr.finish()
	}
	id := tr.begin("op.setup")
	m, err := build(tr, clients, facilities, heatmap.LInf)
	if err != nil {
		return err
	}
	s, err := publish(tr, m, 1)
	if err != nil {
		return err
	}
	tr.end(id)
	if got := s.rd.Bounds(); got != data {
		b.mismatch("server map bounds %v, in-process %v", data, got)
	}
	if b.traced {
		_, _, cells := m.SlabIndexStats()
		b.setLayer("pointloc.cells", "count", float64(cells), 1)
		b.setLayer("core.labelings", "count", float64(m.Stats().Labelings), 1)
	}
	maxHeat, _ := m.MaxHeat()
	for i, body := range lg.optBody {
		var resp struct {
			Regions []struct {
				Heat  float64   `json:"heat"`
				Point pointJSON `json:"point"`
				RNN   []int     `json:"rnn"`
			} `json:"regions"`
		}
		if err := json.Unmarshal(body, &resp); err != nil || len(resp.Regions) == 0 {
			b.mismatch("optimal %d: undecodable or empty answer", i)
			continue
		}
		if resp.Regions[0].Heat != maxHeat {
			b.mismatch("optimal %d: best heat %v, want the map's max heat %v", i, resp.Regions[0].Heat, maxHeat)
		}
		if !b.traced {
			continue
		}
		id := tr.begin("op.optimal")
		want, err := topK(tr, s, optimalK)
		tr.end(id)
		if err != nil {
			return err
		}
		if len(want) != len(resp.Regions) {
			b.mismatch("optimal %d: %d regions, want %d", i, len(resp.Regions), len(want))
			continue
		}
		for k, r := range resp.Regions {
			w := want[k]
			if r.Heat != w.Heat || r.Point != (pointJSON{w.Point.X, w.Point.Y}) || !slices.Equal(r.RNN, w.RNN) {
				b.mismatch("optimal %d region %d differs from the in-process answer", i, k)
			}
		}
	}
	seen := map[tile][32]byte{}
	distinct := 0
	for i, st := range lg.steps {
		if prev, ok := seen[st.t]; ok {
			if prev != lg.tileSHA[i] {
				b.mismatch("tile %v changed between visits", st.t)
			}
		} else {
			seen[st.t] = lg.tileSHA[i]
			if b.traced || distinct%checkEvery == 0 {
				id := tr.begin("op.tile")
				h, err := renderTile(tr, s, st.t)
				tr.end(id)
				if err != nil {
					return err
				}
				if h != lg.tileSHA[i] {
					b.mismatch("tile %v: PNG differs from the in-process render", st.t)
				}
			}
			distinct++
		}
		for j, rb := range st.reads {
			id := tr.begin("op.read")
			heats, rnns := query(tr, s, rb.pts)
			tr.end(id)
			if d := checkBatch(lg.readBody[i*readsPerTile+j], heats, rnns); d != "" {
				b.mismatch("heat batch %d: %s", i*readsPerTile+j, d)
			}
		}
	}
	if tr != nil {
		var missLat []time.Duration
		for i, st := range lg.steps {
			if !st.revisit {
				missLat = append(missLat, lg.tileLat[i])
			}
		}
		return b.layerMetrics(tr, "op.tile", missLat, lg.readLat)
	}
	return nil
}
