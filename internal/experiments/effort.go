package experiments

import (
	"context"
	"fmt"

	"repro/internal/datagen"
	"repro/internal/monitor"
	"repro/internal/relation"
)

// EffortClass aggregates the user effort of the inputs whose ground truth
// the master covers to the same degree.
type EffortClass struct {
	Name   string
	Inputs int
	Attrs  int // attributes the users typed, summed over the inputs
	Rounds int // interaction rounds, summed over the inputs
	// Hist[k] counts the inputs fixed in k+1 rounds; the last bucket also
	// takes every longer session.
	Hist  [5]int
	Wrong int // fixes that did not complete on their truth
}

// AttrsPerFix is the mean number of attributes the users typed per input.
func (c EffortClass) AttrsPerFix() float64 { return float64(c.Attrs) / float64(max(c.Inputs, 1)) }

// RoundsPerFix is the mean number of interaction rounds per input.
func (c EffortClass) RoundsPerFix() float64 { return float64(c.Rounds) / float64(max(c.Inputs, 1)) }

func (c *EffortClass) add(o EffortClass) {
	c.Inputs += o.Inputs
	c.Attrs += o.Attrs
	c.Rounds += o.Rounds
	c.Wrong += o.Wrong
	for k := range c.Hist {
		c.Hist[k] += o.Hist[k]
	}
}

// EffortStats is the effort of one monitoring run split by how much of
// each input's ground truth the master covers: the premise of no rule, of
// some rules, or of every rule of Σ matches a master tuple at the truth's
// values. Total sums the three.
type EffortStats struct {
	Classes [3]EffortClass
	Total   EffortClass
}

// MeasureEffort fixes every input of ds with the simulated user, one
// session at a time, and accounts each session's typed attributes and
// rounds to its truth's coverage class.
func MeasureEffort(ds *datagen.Dataset, mcfg monitor.Config) (EffortStats, error) {
	m, err := monitor.New(ds.Sigma, ds.Master, mcfg)
	if err != nil {
		return EffortStats{}, err
	}
	stats := EffortStats{Total: EffortClass{Name: "all inputs"}}
	for i, name := range []string{"no premise in Dm", "some premises in Dm", "every premise in Dm"} {
		stats.Classes[i].Name = name
	}
	for i, in := range ds.Inputs {
		res, err := m.Fix(context.TODO(), in, monitor.SimulatedUser{Truth: ds.Truths[i]})
		if err != nil {
			return EffortStats{}, fmt.Errorf("experiments: fixing tuple %d: %w", i, err)
		}
		c := &stats.Classes[coverage(ds, ds.Truths[i])]
		c.Inputs++
		c.Attrs += res.UserValidated.Len()
		c.Rounds += res.Rounds
		c.Hist[min(max(res.Rounds, 1), len(c.Hist))-1]++
		if !res.Completed || !res.Tuple.Equal(ds.Truths[i]) {
			c.Wrong++
		}
	}
	for _, c := range stats.Classes {
		stats.Total.add(c)
	}
	return stats, nil
}

// coverage classifies a ground truth by the rules of Σ whose whole lhs
// matches a master tuple at the truth's values: 0 = none, 1 = some,
// 2 = every rule.
func coverage(ds *datagen.Dataset, truth relation.Tuple) int {
	var all relation.AttrSet
	for p := range truth {
		all.Add(p)
	}
	hits := 0
	for _, ru := range ds.Sigma.Rules() {
		if ds.Master.CompatibleExists(ru, truth, all) {
			hits++
		}
	}
	switch hits {
	case 0:
		return 0
	case ds.Sigma.Len():
		return 2
	}
	return 1
}

// Effort measures where the questions go: attributes typed and rounds per
// fix, and the histogram of rounds, by master coverage of the truth — the
// paper's user-effort metric (§6, Fig. 9) per input class instead of as
// one recall curve. The output depends on the generated data and the
// suggestions alone, so it is identical for every shard count and for a
// heap-built or arena-loaded master.
func Effort(p Params) (*Table, error) {
	p = p.WithDefaults()
	ds, err := generate(p)
	if err != nil {
		return nil, err
	}
	stats, err := MeasureEffort(ds, monitor.Config{})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Effort: questions per certain fix by master coverage (%s, d%%=%.0f, n%%=%.0f, |Dm|=%d)", p.Dataset, p.DupRate*100, p.NoiseRate*100, p.MasterSize),
		Columns: []string{"truth", "inputs", "share", "attrs/fix", "rounds/fix", "r=1", "r=2", "r=3", "r=4", "r>=5", "wrong"},
	}
	for _, c := range append(stats.Classes[:], stats.Total) {
		row := []string{c.Name, fmt.Sprint(c.Inputs), f2(float64(c.Inputs) / float64(max(stats.Total.Inputs, 1))),
			fmt.Sprintf("%.3f", c.AttrsPerFix()), fmt.Sprintf("%.3f", c.RoundsPerFix())}
		for _, n := range c.Hist {
			row = append(row, fmt.Sprint(n))
		}
		t.Rows = append(t.Rows, append(row, fmt.Sprint(c.Wrong)))
	}
	return t, nil
}
