package main

// The layer sequences below mirror what heatmapd runs for each operation,
// calling the same public functions in the same order, so that a span
// around each call measures that layer's share of the operation. Each
// function names the server code it follows; when that code changes its
// sequence, the mirror here must change with it.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/geom"
	"rnnheatmap/internal/render"
	"rnnheatmap/internal/snapshot"
)

// tileSize is heatmapd's default tile edge in pixels.
const tileSize = 256

// served is a map together with everything the server derives from it when
// it publishes a version.
type served struct {
	m       *heatmap.Map
	rd      *render.Renderer
	world   geom.Rect // the square the tile pyramid is cut from
	lo, hi  float64   // tile normalization range
	version uint64
	// patched reports that the slab index was carried forward from the
	// previous version instead of being built for this one.
	patched bool
}

// publish mirrors newMapState in internal/server/server.go: the renderer
// (whose creation builds the slab point-location index unless ApplyDelta
// patched it forward), the Summary, and the heat range of heatRange.
func publish(tr *tracer, m *heatmap.Map, version uint64) (*served, error) {
	s := &served{m: m, version: version}
	s.patched, _, _ = m.SlabIndexStats()
	if !s.patched {
		// The first query on a fresh map builds the index; it is the same
		// build newMapState triggers through m.Renderer.
		id := tr.begin("pointloc.build")
		m.HeatAt(m.Bounds().Center())
		tr.end(id)
	}
	rd, err := m.Renderer()
	if err != nil {
		return nil, err
	}
	s.rd = rd
	id := tr.begin("postprocess.summary")
	sum := m.Summary()
	tr.end(id)
	// heatRange in internal/server/server.go.
	outside := m.Bounds().Expand(1).Corners()
	s.lo, _ = m.HeatAt(outside[0])
	s.hi = s.lo
	if sum.Count > 0 {
		s.lo = math.Min(s.lo, sum.MinHeat)
		s.hi = math.Max(s.hi, sum.MaxHeat)
	}
	// newGrid in internal/server/tile.go.
	b := rd.Bounds()
	s.world = geom.RectFromCenter(b.Center(), math.Max(b.Width(), b.Height())/2)
	return s, nil
}

// build mirrors the Build call of cmd/heatmapd's buildInitialMap and of
// handleCreateMap in internal/server/registry.go (size measure, default
// worker count).
func build(tr *tracer, clients, facilities []heatmap.Point, metric heatmap.Metric) (*heatmap.Map, error) {
	id := tr.beginAlloc("core.build")
	m, err := heatmap.Build(heatmap.Config{Clients: clients, Facilities: facilities, Metric: metric})
	tr.end(id)
	return m, err
}

// save mirrors saveInstanceLocked in internal/server/registry.go: the map
// is written as a format-v2 snapshot and the WAL (if any) is reset.
func save(tr *tracer, s *served, path string, wal *snapshot.WAL) error {
	id := tr.begin("snapshot.save")
	defer tr.end(id)
	if err := s.m.SaveSnapshotFormat(path, s.version, heatmap.SnapshotV2); err != nil {
		return err
	}
	if wal != nil {
		return wal.Reset()
	}
	return nil
}

// tileBounds mirrors grid.tileBounds in internal/server/tile.go.
func tileBounds(world geom.Rect, z, x, y int) geom.Rect {
	n := float64(uint64(1) << z)
	side := world.Width() / n
	minX := world.MinX + float64(x)*side
	maxY := world.MaxY - float64(y)*side
	return geom.Rect{MinX: minX, MinY: maxY - side, MaxX: minX + side, MaxY: maxY}
}

// renderTile mirrors Server.renderTile in internal/server/server.go and
// returns the SHA-256 of the PNG bytes.
func renderTile(tr *tracer, s *served, t tile) ([32]byte, error) {
	id := tr.begin("render.raster")
	raster, err := s.rd.Render(tileBounds(s.world, t.z, t.x, t.y), tileSize, tileSize)
	tr.end(id)
	if err != nil {
		return [32]byte{}, err
	}
	var buf bytes.Buffer
	id = tr.begin("render.png")
	err = raster.WritePNGScaled(&buf, render.Grayscale, s.lo, s.hi)
	tr.end(id)
	return sha256.Sum256(buf.Bytes()), err
}

// query mirrors handleHeatBatch: one HeatAtBatch over the request's points.
func query(tr *tracer, s *served, ps []heatmap.Point) ([]float64, [][]int) {
	id := tr.begin("pointloc.query")
	defer tr.end(id)
	return s.m.HeatAtBatch(ps)
}

// topK mirrors handleOptimal in internal/server/optimal.go.
func topK(tr *tracer, s *served, k int) ([]heatmap.OptimalRegion, error) {
	id := tr.begin("optimal.topk")
	defer tr.end(id)
	return s.m.OptimalTopK(k, heatmap.OptimalConstraints{})
}

// commit mirrors ingester.commit in internal/server/ingest.go for a group
// of one batch, which is what a single closed-loop writer produces (the
// server reports group_batches = 1): ApplyDeltaBatch, the new map state,
// one WAL AppendBatch (one fsync), then publication. The tile-cache
// migration is not mirrored: the ingest workload fetches no tiles, so the
// server's cache is empty. It also returns the bytes the WAL grew by.
func commit(tr *tracer, s *served, ds []heatmap.Delta, wal *snapshot.WAL) (*served, heatmap.DeltaStats, int64, error) {
	id := tr.beginAlloc("delta.apply")
	next, stats, err := s.m.ApplyDeltaBatch(ds)
	tr.end(id)
	if err != nil {
		return nil, stats, 0, err
	}
	ns, err := publish(tr, next, s.version+1)
	if err != nil {
		return nil, stats, 0, err
	}
	before, err := os.Stat(wal.Path())
	if err != nil {
		return nil, stats, 0, err
	}
	id = tr.begin("snapshot.wal_append")
	err = wal.AppendBatch([]snapshot.Record{walRecord(ns.version, ds)})
	tr.end(id)
	if err != nil {
		return nil, stats, 0, err
	}
	after, err := os.Stat(wal.Path())
	if err != nil {
		return nil, stats, 0, err
	}
	return ns, stats, after.Size() - before.Size(), nil
}

// walRecord mirrors walRecord in internal/server/ingest.go.
func walRecord(version uint64, ds []heatmap.Delta) snapshot.Record {
	ops := make([]snapshot.Op, len(ds))
	for i, d := range ds {
		ops[i] = snapshot.Op{
			AddClients:       d.AddClients,
			RemoveClients:    d.RemoveClients,
			AddFacilities:    d.AddFacilities,
			RemoveFacilities: d.RemoveFacilities,
		}
	}
	return snapshot.BatchRecord(version, ops)
}

// recoverMap mirrors loadMaps and replayWAL in internal/server/registry.go
// followed by register: open the snapshot (zero-copy for format v2), re-apply
// every WAL record newer than it one at a time, then publish.
func recoverMap(tr *tracer, snapPath, walPath string) (*served, error) {
	id := tr.begin("snapshot.open")
	m, version, err := heatmap.OpenSnapshot(snapPath)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("snapshot.replay")
	wal, records, err := snapshot.OpenWAL(walPath)
	if err == nil {
		defer wal.Close()
		for _, rec := range records {
			if rec.Version <= version {
				continue
			}
			if rec.Version != version+1 {
				err = fmt.Errorf("WAL jumps from version %d to %d", version, rec.Version)
				break
			}
			ops := rec.Ops()
			ds := make([]heatmap.Delta, len(ops))
			for i, op := range ops {
				ds[i] = heatmap.Delta{
					AddClients:       op.AddClients,
					RemoveClients:    op.RemoveClients,
					AddFacilities:    op.AddFacilities,
					RemoveFacilities: op.RemoveFacilities,
				}
			}
			if m, _, err = m.ApplyDeltaBatch(ds); err != nil {
				break
			}
			version = rec.Version
		}
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return publish(tr, m, version)
}
