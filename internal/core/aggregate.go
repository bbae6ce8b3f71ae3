package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"xmatch/internal/mapping"
	"xmatch/internal/twig"
	"xmatch/internal/xmltree"
)

// This file implements aggregate queries over probabilistic mappings in the
// style of Gal, Martinez, Simari and Subrahmanian ("Aggregate query
// answering under uncertain schema mappings", ICDE 2009), which the paper
// cites as the relational counterpart of its related work: an aggregate
// (COUNT, SUM, MIN, MAX, AVG) over the values a twig query binds to one of
// its nodes, evaluated under every possible mapping, yields a probability
// distribution over aggregate values rather than a single number.

// AggFunc selects the aggregate.
type AggFunc int

const (
	Count AggFunc = iota
	Sum
	Min
	Max
	Avg
)

// String names the aggregate function.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Avg:
		return "AVG"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// AggValue is one outcome of an aggregate distribution: the aggregate
// evaluates to Value with probability Prob. Valid is false when the
// aggregate is undefined for a mapping (no matches for MIN/MAX/AVG/SUM).
type AggValue struct {
	Value float64
	Valid bool
	Prob  float64
}

// AggDistribution is the by-table distribution of an aggregate: one
// outcome per distinct aggregate value, probabilities summing to the total
// probability of the relevant mappings.
type AggDistribution struct {
	Func    AggFunc
	Values  []AggValue
	numeric bool
}

// Expected returns the expectation of the aggregate over the defined
// outcomes (range semantics collapse to expectation under by-table
// evaluation), together with the probability mass that was defined.
func (d *AggDistribution) Expected() (value, definedMass float64) {
	for _, v := range d.Values {
		if !v.Valid {
			continue
		}
		value += v.Value * v.Prob
		definedMass += v.Prob
	}
	if definedMass > 0 {
		value /= definedMass
	}
	return value, definedMass
}

// EvaluateAggregate answers an aggregate PTQ: the query is evaluated with
// the block tree, the text values bound to node qn are aggregated per
// mapping (non-numeric values are ignored for numeric aggregates; COUNT
// counts distinct bound document nodes), and outcomes with equal aggregate
// values are folded by summing probabilities. Outcomes are ordered by
// non-increasing probability, ties by value.
func EvaluateAggregate(q *Query, set *mapping.Set, doc *xmltree.Document,
	bt *BlockTree, qn *twig.Node, fn AggFunc) *AggDistribution {

	results := Evaluate(q, set, doc, bt)
	type key struct {
		value float64
		valid bool
	}
	acc := map[key]float64{}
	for _, r := range results {
		// Distinct document nodes bound to qn across this mapping's
		// matches — distinct by position, not by object: two matches may
		// bind the same node through different objects (see Matcher).
		seen := map[int]bool{}
		var vals []float64
		for _, m := range r.Matches {
			d := m.Get(qn)
			if d == nil || seen[d.Start] {
				continue
			}
			seen[d.Start] = true
			if fn == Count {
				continue
			}
			if v, err := strconv.ParseFloat(d.Text, 64); err == nil {
				vals = append(vals, v)
			}
		}
		k := key{valid: true}
		switch fn {
		case Count:
			k.value = float64(len(seen))
		case Sum:
			if len(vals) == 0 {
				k.valid = false
			}
			for _, v := range vals {
				k.value += v
			}
		case Min:
			if len(vals) == 0 {
				k.valid = false
			} else {
				k.value = vals[0]
				for _, v := range vals[1:] {
					k.value = math.Min(k.value, v)
				}
			}
		case Max:
			if len(vals) == 0 {
				k.valid = false
			} else {
				k.value = vals[0]
				for _, v := range vals[1:] {
					k.value = math.Max(k.value, v)
				}
			}
		case Avg:
			if len(vals) == 0 {
				k.valid = false
			} else {
				for _, v := range vals {
					k.value += v
				}
				k.value /= float64(len(vals))
			}
		}
		if !k.valid {
			k.value = 0
		}
		acc[k] += r.Prob
	}
	d := &AggDistribution{Func: fn, numeric: fn != Count}
	for k, p := range acc {
		d.Values = append(d.Values, AggValue{Value: k.value, Valid: k.valid, Prob: p})
	}
	sort.Slice(d.Values, func(i, j int) bool {
		if d.Values[i].Prob != d.Values[j].Prob {
			return d.Values[i].Prob > d.Values[j].Prob
		}
		return d.Values[i].Value < d.Values[j].Value
	})
	return d
}
