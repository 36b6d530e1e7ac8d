package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"

	"rnnheatmap/heatmap"
	"rnnheatmap/internal/geom"
)

// The maps each workload serves are fixed: their point sets come from these
// constants, not from -seed. A map's size and shape set most of what a
// request costs (slab cells, regions, optimal search space), so drawing a
// new map per seed would turn seed-to-seed differences into run-to-run
// spread. The seed drives everything the users of the map send: the tile
// walk, the query points, the mutation feed and the tenants' tile picks.
const (
	exploreMapSeed = 16001
	ingestMapSeed  = 16002
	tenantsMapSeed = 16003
)

// batchPoints is the size of every POST /heat/batch request: a few hundred
// points, so one read is long enough to time well.
const batchPoints = 256

// cityMap samples nc clients and nf facilities from a simulated city.
func cityMap(city func(n int, seed int64) *heatmap.Dataset, nc, nf int, seed int64) (clients, facilities []heatmap.Point) {
	return city(2*(nc+nf), seed).SampleClientsFacilities(nc, nf, seed+1)
}

// writeCSV writes points in the "x,y" format heatmapd's -clients-csv reads.
func writeCSV(path string, ps []heatmap.Point) error {
	var buf bytes.Buffer
	if err := (&heatmap.Dataset{Points: ps}).WriteCSV(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

type pointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

func toJSONPoints(ps []heatmap.Point) []pointJSON {
	out := make([]pointJSON, len(ps))
	for i, p := range ps {
		out[i] = pointJSON{p.X, p.Y}
	}
	return out
}

// readBatch is one POST /heat/batch request: its points and encoded body.
type readBatch struct {
	pts  []heatmap.Point
	body []byte
}

func newReadBatch(pts []heatmap.Point) readBatch {
	body, err := json.Marshal(map[string]any{"points": toJSONPoints(pts)})
	if err != nil {
		panic(err) // finite points always encode
	}
	return readBatch{pts: pts, body: body}
}

// uniformIn draws n points uniformly in r.
func uniformIn(rng *rand.Rand, r geom.Rect, n int) []heatmap.Point {
	ps := make([]heatmap.Point, n)
	for i := range ps {
		ps[i] = heatmap.Pt(r.MinX+rng.Float64()*r.Width(), r.MinY+rng.Float64()*r.Height())
	}
	return ps
}

// heatAnswer is one point's answer in a /heat/batch response.
type heatAnswer struct {
	Heat float64 `json:"heat"`
	RNN  []int   `json:"rnn"`
}

// checkBatch compares a /heat/batch response body with the heats and RNN
// sets the in-process map gives for the same points, and returns a
// description of the first difference ("" when equal).
func checkBatch(body []byte, heats []float64, rnns [][]int) string {
	var resp struct {
		Results []heatAnswer `json:"results"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Sprintf("undecodable response: %v", err)
	}
	if len(resp.Results) != len(heats) {
		return fmt.Sprintf("%d answers, want %d", len(resp.Results), len(heats))
	}
	for i, a := range resp.Results {
		if math.Float64bits(a.Heat) != math.Float64bits(heats[i]) || !slices.Equal(a.RNN, rnns[i]) {
			return fmt.Sprintf("point %d: heat %v rnn %v, want heat %v rnn %v", i, a.Heat, a.RNN, heats[i], rnns[i])
		}
	}
	return ""
}

// statsJSON is the part of GET /stats the benchmark reads.
type statsJSON struct {
	Version    uint64 `json:"version"`
	Clients    int    `json:"clients"`
	Facilities int    `json:"facilities"`
	Bounds     struct {
		MinX float64 `json:"min_x"`
		MinY float64 `json:"min_y"`
		MaxX float64 `json:"max_x"`
		MaxY float64 `json:"max_y"`
	} `json:"bounds"`
	Tiles struct {
		CacheHits   uint64 `json:"cache_hits"`
		CacheMisses uint64 `json:"cache_misses"`
	} `json:"tiles"`
}

func (s statsJSON) bounds() geom.Rect {
	return geom.Rect{MinX: s.Bounds.MinX, MinY: s.Bounds.MinY, MaxX: s.Bounds.MaxX, MaxY: s.Bounds.MaxY}
}

// tile addresses one tile of the pyramid.
type tile struct{ z, x, y int }

func (t tile) path() string { return fmt.Sprintf("/tiles/%d/%d/%d.png", t.z, t.x, t.y) }

// tilesOver lists the tiles at zoom z that intersect r.
func tilesOver(world, r geom.Rect, z int) []tile {
	var out []tile
	n := 1 << z
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if tileBounds(world, z, x, y).Intersects(r) {
				out = append(out, tile{z, x, y})
			}
		}
	}
	return out
}
