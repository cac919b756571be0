package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// MaxSweepChildren caps how many child specs one sweep may expand into, so
// a mistyped range fails loudly instead of materializing an unbounded grid.
const MaxSweepChildren = 512

// Axis enumerates the values of one numeric sweep dimension: either an
// explicit list ("values") or an inclusive range from From to To, stepped
// arithmetically ("step") or geometrically ("factor"). Exactly one form
// must be given. Range expansion is index-based (From + i·Step, From·Factorⁱ),
// so repeated float addition cannot drift the grid.
type Axis struct {
	Values []float64 `json:"values,omitempty"`
	From   float64   `json:"from,omitempty"`
	To     float64   `json:"to,omitempty"`
	Step   float64   `json:"step,omitempty"`
	Factor float64   `json:"factor,omitempty"`
}

// expand materializes the axis values. integral axes (n, tau, b) reject
// non-integer values.
func (a *Axis) expand(name string, integral bool) ([]float64, error) {
	var vals []float64
	hasRange := a.From != 0 || a.To != 0 || a.Step != 0 || a.Factor != 0
	switch {
	case len(a.Values) > 0:
		if hasRange {
			return nil, fmt.Errorf("scenario: sweep axis %q mixes values with a range", name)
		}
		vals = append(vals, a.Values...)
	case a.Step != 0 && a.Factor != 0:
		return nil, fmt.Errorf("scenario: sweep axis %q gives both step and factor", name)
	case a.Step != 0:
		if a.Step < 0 {
			return nil, fmt.Errorf("scenario: sweep axis %q has negative step", name)
		}
		if a.To < a.From {
			return nil, fmt.Errorf("scenario: sweep axis %q range runs backwards (from=%v to=%v)", name, a.From, a.To)
		}
		for i := 0; ; i++ {
			v := a.From + float64(i)*a.Step
			if v > a.To*(1+1e-12)+1e-12 {
				break
			}
			vals = append(vals, v)
			if len(vals) > MaxSweepChildren {
				return nil, fmt.Errorf("scenario: sweep axis %q exceeds %d values", name, MaxSweepChildren)
			}
		}
	case a.Factor != 0:
		if a.Factor <= 1 {
			return nil, fmt.Errorf("scenario: sweep axis %q needs factor > 1, got %v", name, a.Factor)
		}
		if a.From <= 0 {
			return nil, fmt.Errorf("scenario: sweep axis %q geometric range needs from > 0", name)
		}
		if a.To < a.From {
			return nil, fmt.Errorf("scenario: sweep axis %q range runs backwards (from=%v to=%v)", name, a.From, a.To)
		}
		for i := 0; ; i++ {
			v := a.From * math.Pow(a.Factor, float64(i))
			if v > a.To*(1+1e-12) {
				break
			}
			vals = append(vals, v)
			if len(vals) > MaxSweepChildren {
				return nil, fmt.Errorf("scenario: sweep axis %q exceeds %d values", name, MaxSweepChildren)
			}
		}
	default:
		return nil, fmt.Errorf("scenario: sweep axis %q needs values or a range (step/factor)", name)
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("scenario: sweep axis %q expands to no values", name)
	}
	if integral {
		for _, v := range vals {
			if v != math.Round(v) {
				return nil, fmt.Errorf("scenario: sweep axis %q needs integer values, got %v", name, v)
			}
		}
	}
	return vals, nil
}

// SweepAxes names the dimensions a sweep varies over the base spec. An
// absent axis leaves the base field untouched; a present axis overrides it
// for every child. The declaration order here is the expansion order:
// algorithm is the outermost loop, adversary the innermost (rightmost
// varies fastest).
type SweepAxes struct {
	Algorithm    []string        `json:"algorithm,omitempty"`
	N            *Axis           `json:"n,omitempty"`
	TargetDegree *Axis           `json:"target_degree,omitempty"`
	GrayProb     *Axis           `json:"gray_prob,omitempty"`
	Tau          *Axis           `json:"tau,omitempty"`
	B            *Axis           `json:"b,omitempty"`
	Adversary    []AdversarySpec `json:"adversary,omitempty"`
}

// SweepSpec is a declarative parameter grid: one base Spec plus axes that
// expand into the cross product of their values. Expansion is
// deterministic — same sweep, same child list, same order — and each child
// is a full Spec with its own canonical hash, so sweep results are cached
// and persisted per child exactly like individually submitted specs.
type SweepSpec struct {
	// Version is the spec schema version shared with Spec (0 = current).
	Version int `json:"version,omitempty"`
	// Name is a cosmetic label, inherited into child names.
	Name string `json:"name,omitempty"`
	// Base is the spec every child starts from.
	Base Spec `json:"base"`
	// Axes are the varied dimensions.
	Axes SweepAxes `json:"axes"`
}

// sweepDim is one expanded axis: display labels plus a setter per value.
type sweepDim struct {
	name   string
	labels []string
	apply  []func(*Spec)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func numericDim(name string, axis *Axis, integral bool, set func(*Spec, float64)) (sweepDim, error) {
	vals, err := axis.expand(name, integral)
	if err != nil {
		return sweepDim{}, err
	}
	d := sweepDim{name: name}
	for _, v := range vals {
		v := v
		d.labels = append(d.labels, formatFloat(v))
		d.apply = append(d.apply, func(s *Spec) { set(s, v) })
	}
	return d, nil
}

// dims expands every present axis in declaration order.
func (a SweepAxes) dims() ([]sweepDim, error) {
	var dims []sweepDim
	if len(a.Algorithm) > 0 {
		d := sweepDim{name: "algorithm"}
		for _, algo := range a.Algorithm {
			algo := algo
			d.labels = append(d.labels, algo)
			d.apply = append(d.apply, func(s *Spec) { s.Algorithm = algo })
		}
		dims = append(dims, d)
	}
	type numAxis struct {
		name     string
		axis     *Axis
		integral bool
		set      func(*Spec, float64)
	}
	for _, na := range []numAxis{
		{"n", a.N, true, func(s *Spec, v float64) { s.Network.N = int(v) }},
		{"target_degree", a.TargetDegree, false, func(s *Spec, v float64) { s.Network.TargetDegree = v }},
		{"gray_prob", a.GrayProb, false, func(s *Spec, v float64) { s.Network.GrayProb = v }},
		{"tau", a.Tau, true, func(s *Spec, v float64) { s.Network.Tau = int(v) }},
		{"b", a.B, true, func(s *Spec, v float64) { s.B = int(v) }},
	} {
		if na.axis == nil {
			continue
		}
		d, err := numericDim(na.name, na.axis, na.integral, na.set)
		if err != nil {
			return nil, err
		}
		dims = append(dims, d)
	}
	if len(a.Adversary) > 0 {
		d := sweepDim{name: "adversary"}
		for _, adv := range a.Adversary {
			adv := adv
			label := adv.Kind
			if label == "" {
				label = AdvCollision
			}
			switch adv.Kind {
			case AdvUniform:
				label += "(p=" + formatFloat(adv.P) + ")"
			case AdvBursty:
				label += "(up=" + formatFloat(adv.MeanUp) + ",down=" + formatFloat(adv.MeanDown) + ")"
			}
			d.labels = append(d.labels, label)
			d.apply = append(d.apply, func(s *Spec) { s.Adversary = adv })
		}
		dims = append(dims, d)
	}
	return dims, nil
}

// Dim is one expanded sweep axis: its name and its ordered value labels.
// The labels are the same strings the child names embed (n=64, tau=2, ...).
type Dim struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels"`
}

// Expansion is a sweep expanded into compiled children: the deterministic
// grid order, each child's canonical hash, and the stable sweep hash.
type Expansion struct {
	// Spec is the sweep as given.
	Spec SweepSpec
	// Children are the compiled child specs in grid order (first axis
	// outermost, last axis fastest), deduplicated by canonical hash: two
	// grid points that canonicalize to the same workload keep only the
	// first occurrence.
	Children []*Compiled
	// Dims are the expanded axes in declaration order (empty for an
	// axis-free sweep of one child).
	Dims []Dim
	// Grid maps every grid point — odometer order over Dims, last axis
	// fastest — to its index in Children. Deduplicated grid points share a
	// child, so len(Grid) is the full axis product while len(Children) may
	// be smaller.
	Grid []int
	hash string
}

// ExpandSweep expands a sweep into its compiled children. Expansion is
// deterministic: identical sweeps — including differently spelled axes that
// produce the same value grid — yield the same child list, order, and hash.
// Every child must validate; the first invalid grid point aborts the whole
// sweep with its coordinates in the error.
func ExpandSweep(sw SweepSpec) (*Expansion, error) {
	if sw.Version != 0 && sw.Version != SpecVersion {
		return nil, fmt.Errorf("scenario: unsupported sweep version %d (current %d)", sw.Version, SpecVersion)
	}
	dims, err := sw.Axes.dims()
	if err != nil {
		return nil, err
	}
	total := 1
	for _, d := range dims {
		total *= len(d.labels)
		// Each axis holds at most MaxSweepChildren values, so checking per
		// axis keeps the product far from integer overflow.
		if total > MaxSweepChildren {
			return nil, fmt.Errorf("scenario: sweep expands to more than %d children", MaxSweepChildren)
		}
	}
	baseName := sw.Name
	if baseName == "" {
		baseName = sw.Base.Name
	}
	exp := &Expansion{Spec: sw, Grid: make([]int, 0, total)}
	for _, d := range dims {
		exp.Dims = append(exp.Dims, Dim{Name: d.name, Labels: d.labels})
	}
	seen := make(map[string]int, total)
	idx := make([]int, len(dims))
	for child := 0; child < total; child++ {
		spec := sw.Base
		var coords []string
		for di, d := range dims {
			d.apply[idx[di]](&spec)
			coords = append(coords, d.name+"="+d.labels[idx[di]])
		}
		if len(coords) > 0 {
			spec.Name = strings.TrimSpace(baseName + "[" + strings.Join(coords, " ") + "]")
		}
		comp, err := Compile(spec)
		if err != nil {
			return nil, fmt.Errorf("scenario: sweep child {%s}: %w", strings.Join(coords, " "), err)
		}
		ci, ok := seen[comp.Hash()]
		if !ok {
			ci = len(exp.Children)
			seen[comp.Hash()] = ci
			exp.Children = append(exp.Children, comp)
		}
		exp.Grid = append(exp.Grid, ci)
		// Odometer increment: last axis fastest.
		for di := len(dims) - 1; di >= 0; di-- {
			idx[di]++
			if idx[di] < len(dims[di].labels) {
				break
			}
			idx[di] = 0
		}
	}
	h := sha256.New()
	h.Write([]byte("sweep/v1"))
	for _, c := range exp.Children {
		h.Write([]byte{'\n'})
		h.Write([]byte(c.Hash()))
	}
	exp.hash = hex.EncodeToString(h.Sum(nil))
	return exp, nil
}

// Hash returns the stable sweep hash: the SHA-256 over the ordered child
// canonical hashes. Two sweeps hash equal exactly when they expand to the
// same workloads in the same order, regardless of how the axes were spelled.
func (e *Expansion) Hash() string { return e.hash }

// CostEstimate sums the children's admission cost estimates.
func (e *Expansion) CostEstimate() int64 {
	var total int64
	for _, c := range e.Children {
		total += c.CostEstimate()
	}
	return total
}

// ParseSweep decodes a JSON sweep spec, rejecting unknown fields throughout
// (including inside the base spec) so typos surface as errors.
func ParseSweep(data []byte) (SweepSpec, error) {
	var sw SweepSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sw); err != nil {
		return SweepSpec{}, fmt.Errorf("scenario: parse sweep: %w", err)
	}
	return sw, nil
}
