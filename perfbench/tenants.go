package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/geom"
)

// tenants is tenant onboarding on a durable registry (-snapshot-dir). One
// control connection repeatedly creates an LA-like L2 map through POST
// /maps, checks it, fetches a few of its tiles and one heat batch, and
// deletes it; one open-loop reader sends heat batches to the small
// L-infinity default map beside it. It loads the CREST build, the slab index
// build, the snapshot writer and the interference of those builds with
// another tenant's reads, and leaves delta and the WAL idle.
const (
	tenantsDefaultClients    = 500
	tenantsDefaultFacilities = 50
	// The created map: 10 clients per facility.
	tenantClients    = 400
	tenantFacilities = 40
	// Every tile at tenantZoom that shows the created map is fetched, in an
	// order drawn from the seed.
	tenantZoom = 2
)

// tenantCycle is what one onboarding cycle observed.
type tenantCycle struct {
	name     string
	create   time.Duration
	tiles    []tile
	tileSHA  [][32]byte
	tileLat  []time.Duration
	read     readBatch
	readBody []byte
}

func runTenants(b *bench) error {
	defClients, defFacilities := cityMap(heatmap.NewYorkLike, tenantsDefaultClients, tenantsDefaultFacilities, tenantsMapSeed)
	if err := writeCSV(b.path("clients.csv"), defClients); err != nil {
		return err
	}
	if err := writeCSV(b.path("facilities.csv"), defFacilities); err != nil {
		return err
	}
	tClients, tFacilities := cityMap(heatmap.LosAngelesLike, tenantClients, tenantFacilities, tenantsMapSeed+10)
	points, err := json.Marshal(map[string]any{"clients": toJSONPoints(tClients), "facilities": toJSONPoints(tFacilities)})
	if err != nil {
		return err
	}
	args := []string{"-clients-csv", b.path("clients.csv"), "-facilities-csv", b.path("facilities.csv"), "-metric", "linf"}
	p, err := b.setUp(args, func(i int) []string { return []string{"-snapshot-dir", b.path(fmt.Sprintf("snap%d", i))} })
	if err != nil {
		return err
	}
	control, reader := newConn(p), newConn(p)
	defer control.close()
	defer reader.close()
	var st statsJSON
	if err := b.getJSON(control, "/stats", &st); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(b.seed))
	reads := make([]readBatch, int(readRate*b.timed.Seconds())+1)
	for i := range reads {
		reads[i] = newReadBatch(uniformIn(rng, st.bounds(), batchPoints))
	}

	var cycles []*tenantCycle
	ph, err := startPhase(p)
	if err != nil {
		return err
	}
	ol := &openLoop{rate: readRate}
	wait := ol.start(reader, "/heat/batch", reads, ph.start, b.timed, true)
	for i := 0; time.Since(ph.start) < b.timed; i++ {
		cy := &tenantCycle{name: fmt.Sprintf("tenant-%d", i)}
		body := append([]byte(fmt.Sprintf(`{"name":%q,"metric":"l2",`, cy.name)), points[1:]...)
		r := control.do("POST", "/maps", body)
		if !b.count(r) {
			return fmt.Errorf("creating %s failed", cy.name)
		}
		cy.create = r.latency
		var ts statsJSON
		if err := b.getJSON(control, "/maps/"+cy.name+"/stats", &ts); err != nil {
			return err
		}
		data := ts.bounds()
		world := geom.RectFromCenter(data.Center(), math.Max(data.Width(), data.Height())/2)
		cands := tilesOver(world, data, tenantZoom)
		for _, k := range rng.Perm(len(cands)) {
			t := cands[k]
			r := control.do("GET", "/maps/"+cy.name+t.path(), nil)
			if !b.count(r) {
				return fmt.Errorf("tile %v of %s failed", t, cy.name)
			}
			cy.tiles = append(cy.tiles, t)
			cy.tileSHA = append(cy.tileSHA, sha256.Sum256(r.body))
			cy.tileLat = append(cy.tileLat, r.latency)
		}
		cy.read = newReadBatch(uniformIn(rng, data, batchPoints))
		r = control.do("POST", "/maps/"+cy.name+"/heat/batch", cy.read.body)
		if !b.count(r) {
			return fmt.Errorf("heat batch on %s failed", cy.name)
		}
		cy.readBody = r.body
		if r := control.do("DELETE", "/maps/"+cy.name, nil); !b.count(r) {
			return fmt.Errorf("deleting %s failed", cy.name)
		}
		cycles = append(cycles, cy)
	}
	elapsed := time.Since(ph.start)
	wait()
	if err := ph.finish(b, len(cycles)); err != nil {
		return err
	}
	rss, err := p.peakRSSMB()
	if err != nil {
		return err
	}
	p.kill()
	ol.merge(b, "tenants")

	var createLat, tileLat []time.Duration
	for _, cy := range cycles {
		createLat = append(createLat, cy.create)
		tileLat = append(tileLat, cy.tileLat...)
	}
	b.setE2E("rss_peak_mb", "MB", rss, 1)
	b.latencyMetrics(b.setE2E, "op_p50_ms", "op_p90_ms", 0.90, createLat)
	b.setE2E("ops_per_s", "1/s", float64(len(cycles))/elapsed.Seconds(), len(cycles))
	b.setE2E("aux_p50_ms", "ms", median(msList(tileLat)), len(tileLat))
	b.setNamed("create_p50_s", "s", median(msList(createLat))/1000, len(createLat))
	b.latencyMetrics(b.setNamed, "tile_p50_ms", "tile_p90_ms", 0.90, tileLat)
	b.note("tenants control: closed loop, 1 connection; cycle = POST /maps (%d clients, %d facilities, L2) + stats + every zoom-%d tile + 1 heat batch + DELETE; %d cycles",
		tenantClients, tenantFacilities, tenantZoom, len(cycles))
	return b.replayTenants(defClients, defFacilities, tClients, tFacilities, reads, ol, cycles)
}

// replayTenants checks the default map's reads and every created map's
// tiles and heat answers against in-process builds. With tracing on it
// replays each create in full (build, index, summary, snapshot save) with
// the default map's reads spread evenly between the cycles; without, the
// created map is built once, since every cycle creates the same map.
func (b *bench) replayTenants(defClients, defFacilities, tClients, tFacilities []heatmap.Point, reads []readBatch, ol *openLoop, cycles []*tenantCycle) error {
	var tr *tracer
	if b.traced {
		tr = newTracer()
		defer tr.finish()
	}
	id := tr.begin("op.setup")
	dm, err := build(tr, defClients, defFacilities, heatmap.LInf)
	if err != nil {
		return err
	}
	def, err := publish(tr, dm, 1)
	if err != nil {
		return err
	}
	if b.traced {
		if err := save(tr, def, b.path("default.snap"), nil); err != nil {
			return err
		}
	}
	tr.end(id)
	ri := 0
	var tenant *served
	for i, cy := range cycles {
		if tenant == nil || b.traced {
			id := tr.begin("op.create")
			m, err := build(tr, tClients, tFacilities, heatmap.L2)
			if err != nil {
				return err
			}
			if tenant, err = publish(tr, m, 1); err != nil {
				return err
			}
			if b.traced {
				if err := save(tr, tenant, b.path(cy.name+".snap"), nil); err != nil {
					return err
				}
			}
			tr.end(id)
			if b.traced {
				_, _, cells := m.SlabIndexStats()
				b.setLayer("pointloc.cells", "count", float64(cells), 1)
				b.setLayer("core.labelings", "count", float64(m.Stats().Labelings), 1)
			}
		}
		for j, t := range cy.tiles {
			id := tr.begin("op.tile")
			h, err := renderTile(tr, tenant, t)
			tr.end(id)
			if err != nil {
				return err
			}
			if h != cy.tileSHA[j] {
				b.mismatch("%s tile %v: PNG differs from the in-process render", cy.name, t)
			}
		}
		id := tr.begin("op.read")
		heats, rnns := query(tr, tenant, cy.read.pts)
		tr.end(id)
		if d := checkBatch(cy.readBody, heats, rnns); d != "" {
			b.mismatch("%s heat batch: %s", cy.name, d)
		}
		if b.traced {
			// handleDeleteMap removes the snapshot and the WAL.
			if err := os.Remove(b.path(cy.name + ".snap")); err != nil {
				return err
			}
		}
		for end := (i + 1) * len(ol.kept) / len(cycles); ri < end; ri++ {
			k := ol.kept[ri]
			id := tr.begin("op.read")
			heats, rnns := query(tr, def, reads[k.batch].pts)
			tr.end(id)
			if d := checkBatch(k.body, heats, rnns); d != "" {
				b.mismatch("default map heat batch %d: %s", ri, d)
			}
		}
	}
	if tr == nil {
		return nil
	}
	var createLat []time.Duration
	for _, cy := range cycles {
		createLat = append(createLat, cy.create)
	}
	return b.layerMetrics(tr, "op.create", createLat, ol.latency)
}
