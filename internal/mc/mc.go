// Package mc is the Monte Carlo sampling engine: it draws factor vectors
// from the standard normal distribution (the pdf(ΔY) of the paper's eq. 12),
// evaluates a circuit simulator at each point — in parallel, since the
// simulator dominates total cost — and packages the results as training and
// testing datasets for the regression solvers.
package mc

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/rng"
)

// Dataset is a set of sampling points with simulated responses.
type Dataset struct {
	// Points[k] is the factor vector ΔY of sample k.
	Points [][]float64
	// Values[k][j] is metric j at sample k.
	Values [][]float64
	// Metrics names the response columns.
	Metrics []string
	// SimTime is the wall-clock time spent inside the simulator.
	SimTime time.Duration
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Points) }

// Metric extracts the response column with the given name.
func (d *Dataset) Metric(name string) ([]float64, error) {
	for j, m := range d.Metrics {
		if m == name {
			out := make([]float64, d.Len())
			for k, row := range d.Values {
				out[k] = row[j]
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("mc: dataset has no metric %q (have %v)", name, d.Metrics)
}

// MetricColumn extracts response column j.
func (d *Dataset) MetricColumn(j int) []float64 {
	out := make([]float64, d.Len())
	for k, row := range d.Values {
		out[k] = row[j]
	}
	return out
}

// Split partitions the dataset into the first n samples and the rest.
func (d *Dataset) Split(n int) (*Dataset, *Dataset) {
	if n < 0 || n > d.Len() {
		panic(fmt.Sprintf("mc: Split(%d) of %d samples", n, d.Len()))
	}
	a := &Dataset{Points: d.Points[:n], Values: d.Values[:n], Metrics: d.Metrics}
	b := &Dataset{Points: d.Points[n:], Values: d.Values[n:], Metrics: d.Metrics}
	return a, b
}

// Options configures sampling.
type Options struct {
	// Workers is the parallel simulator worker count (0 = GOMAXPROCS).
	Workers int
	// LatinHypercube stratifies the marginals instead of plain iid draws.
	LatinHypercube bool
	// Halton draws a randomized quasi-Monte Carlo design instead of iid
	// points (mutually exclusive with LatinHypercube).
	Halton bool
}

// Sample draws n points and evaluates sim at each. The points are
// deterministic in seed and values[k] is always sim's answer at points[k],
// but the workers evaluate in scheduling order, so the values are
// deterministic only when sim is a pure function of its input. Every
// simulator in package circuit is: circuit.Synthetic keys its observation
// noise by the point's bits rather than drawing it from a shared stream.
func Sample(sim circuit.Simulator, n int, seed int64, opt Options) (*Dataset, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mc: sample count %d must be positive", n)
	}
	src := rng.New(seed)
	dim := sim.Dim()
	points := make([][]float64, n)
	switch {
	case opt.LatinHypercube && opt.Halton:
		return nil, fmt.Errorf("mc: LatinHypercube and Halton are mutually exclusive")
	case opt.LatinHypercube:
		points = rng.LatinHypercube(src, n, dim)
	case opt.Halton:
		points = rng.Halton(src, n, dim)
	default:
		for i := range points {
			points[i] = src.NormVec(nil, dim)
		}
	}
	values := make([][]float64, n)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if firstErr != nil || next >= n {
					mu.Unlock()
					return
				}
				k := next
				next++
				mu.Unlock()
				v, err := sim.Evaluate(points[k])
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("mc: sample %d: %w", k, err)
					}
					mu.Unlock()
					return
				}
				values[k] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return &Dataset{
		Points:  points,
		Values:  values,
		Metrics: sim.Metrics(),
		SimTime: time.Since(start),
	}, nil
}

// WriteCSV serializes the dataset: header y0..y{N-1},metric..., one row per
// sample.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	dim := 0
	if d.Len() > 0 {
		dim = len(d.Points[0])
	}
	header := make([]string, 0, dim+len(d.Metrics))
	for i := 0; i < dim; i++ {
		header = append(header, fmt.Sprintf("y%d", i))
	}
	header = append(header, d.Metrics...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("mc: write header: %w", err)
	}
	row := make([]string, len(header))
	for k := 0; k < d.Len(); k++ {
		for i, v := range d.Points[k] {
			row[i] = strconv.FormatFloat(v, 'g', 17, 64)
		}
		for j, v := range d.Values[k] {
			row[dim+j] = strconv.FormatFloat(v, 'g', 17, 64)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("mc: write row %d: %w", k, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dataset produced by WriteCSV. Columns named y<i> are
// factors; the remainder are metrics.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("mc: read header: %w", err)
	}
	dim := 0
	for dim < len(header) {
		if header[dim] != fmt.Sprintf("y%d", dim) {
			break
		}
		dim++
	}
	d := &Dataset{Metrics: append([]string(nil), header[dim:]...)}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("mc: read line %d: %w", line, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("mc: line %d has %d fields, want %d", line, len(rec), len(header))
		}
		pt := make([]float64, dim)
		vals := make([]float64, len(header)-dim)
		for i, s := range rec {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("mc: line %d field %d: %w", line, i, err)
			}
			if i < dim {
				pt[i] = v
			} else {
				vals[i-dim] = v
			}
		}
		d.Points = append(d.Points, pt)
		d.Values = append(d.Values, vals)
	}
	return d, nil
}

// SampleVirtual evaluates sim at n deterministically regenerable sampling
// points (rng.RowPoint with the given seed) and returns only the responses.
// Pair it with basis.NewGeneratedDesign(b, n, seed): the design re-derives
// the same points on demand, so the 4 GB of stored points a paper-scale run
// would otherwise need (K = 25 000 × N = 21 310) never exist.
func SampleVirtual(sim circuit.Simulator, n int, seed int64, opt Options) ([][]float64, time.Duration, error) {
	if n <= 0 {
		return nil, 0, fmt.Errorf("mc: sample count %d must be positive", n)
	}
	return SampleVirtualRange(sim, 0, n, seed, opt)
}

// SampleVirtualRange evaluates sim at the virtual sampling points with
// indices [from, to) of the stream identified by seed. It lets callers grow
// a virtual dataset incrementally — earlier indices keep their values, so
// adaptive sampling loops never re-simulate.
func SampleVirtualRange(sim circuit.Simulator, from, to int, seed int64, opt Options) ([][]float64, time.Duration, error) {
	return SampleVirtualRangeCtx(context.Background(), sim, from, to, seed, opt)
}

// SampleVirtualRangeCtx is SampleVirtualRange with cancellation: each worker
// checks ctx before every simulator evaluation, so cancellation stops the
// pool within one in-flight sample per worker and returns ctx.Err().
func SampleVirtualRangeCtx(ctx context.Context, sim circuit.Simulator, from, to int, seed int64, opt Options) ([][]float64, time.Duration, error) {
	if from < 0 || to <= from {
		return nil, 0, fmt.Errorf("mc: invalid virtual range [%d, %d)", from, to)
	}
	n := to - from
	dim := sim.Dim()
	values := make([][]float64, n)
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pt := make([]float64, dim)
			for {
				if err := ctx.Err(); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				if firstErr != nil || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				rng.RowPoint(pt, seed, from+i, dim)
				v, err := sim.Evaluate(pt)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("mc: sample %d: %w", from+i, err)
					}
					mu.Unlock()
					return
				}
				values[i] = v
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, 0, firstErr
	}
	return values, time.Since(start), nil
}
