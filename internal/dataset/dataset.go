// Package dataset provides the dataset container used by the experiment
// harness and the CLI tools: labelled point collections with CSV
// round-tripping, summary statistics, and the query-workload selection of
// §VI ("for each experiment we run queries with 1–15 reverse skyline
// points... queries follow the distribution of the particular tested
// dataset").
package dataset

import (
	"bufio"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"

	"repro/internal/geom"
	"repro/internal/rskyline"
	"repro/internal/rtree"
)

// Item aliases the R-tree item type.
type Item = rtree.Item

// Dataset is a named collection of identified points.
type Dataset struct {
	Name    string
	Dims    int
	Items   []Item
	Columns []string // optional attribute names, len == Dims when set
}

// New builds a dataset, validating dimensional consistency.
func New(name string, dims int, items []Item) (*Dataset, error) {
	for _, it := range items {
		if it.Point.Dims() != dims {
			return nil, fmt.Errorf("dataset %s: item %d has %d dims, want %d",
				name, it.ID, it.Point.Dims(), dims)
		}
	}
	return &Dataset{Name: name, Dims: dims, Items: items}, nil
}

// Len returns the number of items.
func (d *Dataset) Len() int { return len(d.Items) }

// Bounds returns the MBR of the dataset; ok is false when empty.
func (d *Dataset) Bounds() (geom.Rect, bool) {
	if len(d.Items) == 0 {
		return geom.Rect{}, false
	}
	r := geom.PointRect(d.Items[0].Point)
	for _, it := range d.Items[1:] {
		r.Expand(it.Point)
	}
	return r, true
}

// Stats summarises one dimension.
type Stats struct {
	Min, Max, Mean float64
}

// ColumnStats computes min/max/mean per dimension.
func (d *Dataset) ColumnStats() []Stats {
	out := make([]Stats, d.Dims)
	for i := range out {
		out[i].Min = +1e308
		out[i].Max = -1e308
	}
	for _, it := range d.Items {
		for i, v := range it.Point {
			if v < out[i].Min {
				out[i].Min = v
			}
			if v > out[i].Max {
				out[i].Max = v
			}
			out[i].Mean += v
		}
	}
	if n := float64(len(d.Items)); n > 0 {
		for i := range out {
			out[i].Mean /= n
		}
	}
	return out
}

// WriteCSV emits "id,dim0,dim1,..." rows with an optional header from
// Columns.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if len(d.Columns) == d.Dims {
		header := append([]string{"id"}, d.Columns...)
		if err := cw.Write(header); err != nil {
			return err
		}
	}
	row := make([]string, d.Dims+1)
	for _, it := range d.Items {
		row[0] = strconv.Itoa(it.ID)
		for i, v := range it.Point {
			row[i+1] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the dataset to a file.
func (d *Dataset) SaveCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	if err := d.WriteCSV(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV parses "id,dim0,dim1,..." rows; a non-numeric first row is treated
// as a header and recorded as column names. The parser is strict — the
// dataset is the root input of every downstream index and query, so a
// corrupt file fails loudly here with the input line number instead of
// producing silent nonsense later:
//
//   - coordinates must be finite (NaN and ±Inf poison dominance comparisons
//     and the R-tree's rectangle arithmetic);
//   - IDs must be unique non-negative integers (negative collides with the
//     rskyline.NoExclude sentinel; duplicates break exclusion and store
//     lookups);
//   - every row's dimensionality must match the header (or the first data
//     row when there is no header).
func ReadCSV(name string, r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	first := true
	var columns []string
	var items []Item
	dims := -1
	seen := map[int]int{} // id -> input line of first occurrence
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset %s: %w", name, err)
		}
		line, _ := cr.FieldPos(0)
		if first {
			first = false
			if _, err := strconv.Atoi(row[0]); err != nil {
				if len(row) < 2 {
					return nil, fmt.Errorf("dataset %s: line %d: header needs id plus at least one column", name, line)
				}
				columns = append([]string(nil), row[1:]...)
				dims = len(columns)
				continue
			}
		}
		if len(row) < 2 {
			return nil, fmt.Errorf("dataset %s: line %d: need id plus at least one coordinate", name, line)
		}
		id, err := strconv.Atoi(row[0])
		if err != nil {
			return nil, fmt.Errorf("dataset %s: line %d: bad id %q: %v", name, line, row[0], err)
		}
		if id < 0 {
			return nil, fmt.Errorf("dataset %s: line %d: negative id %d (ids must be non-negative)", name, line, id)
		}
		if prev, dup := seen[id]; dup {
			return nil, fmt.Errorf("dataset %s: line %d: duplicate id %d (first used on line %d)", name, line, id, prev)
		}
		seen[id] = line
		if dims >= 0 && len(row)-1 != dims {
			return nil, fmt.Errorf("dataset %s: line %d: %d coordinates, want %d", name, line, len(row)-1, dims)
		}
		p := make(geom.Point, len(row)-1)
		for i, s := range row[1:] {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset %s: line %d column %d: %v", name, line, i+2, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("dataset %s: line %d column %d: non-finite coordinate %q", name, line, i+2, s)
			}
			p[i] = v
		}
		if dims == -1 {
			dims = len(p)
		}
		items = append(items, Item{ID: id, Point: p})
	}
	if len(items) == 0 && columns == nil {
		return &Dataset{Name: name}, nil
	}
	d, err := New(name, dims, items)
	if err != nil {
		return nil, err
	}
	d.Columns = columns
	return d, nil
}

// LoadCSV reads a dataset from a file.
func LoadCSV(name, path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(name, bufio.NewReader(f))
}

// QueryCase is one experiment query: a query point, its reverse skyline over
// the dataset, and a randomly drawn why-not customer.
type QueryCase struct {
	Q      geom.Point
	RSL    []Item
	WhyNot Item
}

// FindQueries selects, for each requested reverse-skyline size, a query
// point drawn from the dataset's distribution (a jittered data point) whose
// RSL over customers has exactly that size, plus a random why-not customer
// outside the RSL. Targets with no hit within maxTrials are skipped, mirroring
// the paper's tables where some sizes are absent. A nil customers slice
// selects the monochromatic setting — the customers are the product records
// themselves — whose RSL comes from the index-based BBRS pipeline
// (candidates = the global skyline), in candidate order rather than ID
// order.
func FindQueries(db *rskyline.DB, customers []Item, targets []int, maxTrials int, rng *rand.Rand) []QueryCase {
	mono := customers == nil
	if mono {
		customers = db.Tree().Items()
	}
	want := make(map[int]bool, len(targets))
	for _, t := range targets {
		want[t] = true
	}
	found := map[int]QueryCase{}
	bounds, ok := db.Universe()
	if !ok {
		return nil
	}
	for trial := 0; trial < maxTrials && len(found) < len(want); trial++ {
		base := customers[rng.Intn(len(customers))].Point
		q := make(geom.Point, len(base))
		for i := range q {
			span := bounds.Hi[i] - bounds.Lo[i]
			q[i] = base[i] + (rng.Float64()-0.5)*0.02*span
		}
		// A background context cannot be cancelled: no error.
		var rsl []Item
		if mono {
			rsl, _ = db.ReverseSkylineBBRSCtx(context.Background(), q)
		} else {
			rsl, _ = db.ReverseSkylineFilteredCtx(context.Background(), customers, q)
		}
		size := len(rsl)
		if !want[size] {
			continue
		}
		if _, done := found[size]; done {
			continue
		}
		wn, ok := pickWhyNot(customers, rsl, rng)
		if !ok {
			continue
		}
		found[size] = QueryCase{Q: q, RSL: rsl, WhyNot: wn}
	}
	sizes := make([]int, 0, len(found))
	for s := range found {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	out := make([]QueryCase, 0, len(sizes))
	for _, s := range sizes {
		out = append(out, found[s])
	}
	return out
}

// pickWhyNot draws a customer outside the reverse skyline.
func pickWhyNot(customers, rsl []Item, rng *rand.Rand) (Item, bool) {
	inRSL := make(map[int]bool, len(rsl))
	for _, c := range rsl {
		inRSL[c.ID] = true
	}
	for attempts := 0; attempts < 200; attempts++ {
		c := customers[rng.Intn(len(customers))]
		if !inRSL[c.ID] {
			return c, true
		}
	}
	return Item{}, false
}
