package matching

import (
	"math/rand"
	"testing"
	"testing/quick"

	"xmatch/internal/schema"
)

func flatSchema(t *testing.T, name string, n int) *schema.Schema {
	if t != nil {
		t.Helper()
	}
	b := schema.NewBuilder(name, "root")
	for i := 1; i < n; i++ {
		b.Root.AddChild("e" + string(rune('a'+i%26)) + itoa(i))
	}
	return b.Freeze()
}

func itoa(i int) string {
	digits := "0123456789"
	if i == 0 {
		return "0"
	}
	out := ""
	for i > 0 {
		out = string(digits[i%10]) + out
		i /= 10
	}
	return out
}

func TestNewValidation(t *testing.T) {
	src := flatSchema(t, "S", 5)
	tgt := flatSchema(t, "T", 5)
	cases := []struct {
		name  string
		corrs []Correspondence
	}{
		{"source out of range", []Correspondence{{S: 5, T: 0, Score: 0.5}}},
		{"target out of range", []Correspondence{{S: 0, T: 9, Score: 0.5}}},
		{"zero score", []Correspondence{{S: 0, T: 0, Score: 0}}},
		{"score above one", []Correspondence{{S: 0, T: 0, Score: 1.5}}},
		{"duplicate", []Correspondence{{S: 1, T: 1, Score: 0.5}, {S: 1, T: 1, Score: 0.6}}},
	}
	for _, c := range cases {
		if _, err := New(src, tgt, c.corrs); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	u, err := New(src, tgt, []Correspondence{{S: 2, T: 3, Score: 0.9}, {S: 1, T: 1, Score: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if u.Corrs[0].T != 1 {
		t.Error("correspondences not sorted by target")
	}
	if u.Capacity() != 2 {
		t.Errorf("capacity = %d", u.Capacity())
	}
}

func TestPartitionsDisjointAndComplete(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ns, nt := 2+rng.Intn(20), 2+rng.Intn(20)
		src := flatSchema(nil, "S", ns)
		tgt := flatSchema(nil, "T", nt)
		seen := map[[2]int]bool{}
		var corrs []Correspondence
		for i := 0; i < rng.Intn(30); i++ {
			s, tg := rng.Intn(ns), rng.Intn(nt)
			if seen[[2]int{s, tg}] {
				continue
			}
			seen[[2]int{s, tg}] = true
			corrs = append(corrs, Correspondence{S: s, T: tg, Score: 0.5})
		}
		u := MustNew(src, tgt, corrs)
		parts := u.Partitions()
		// Completeness: every correspondence in exactly one partition.
		counted := map[int]int{}
		for _, p := range parts {
			for _, ci := range p.Corrs {
				counted[ci]++
			}
		}
		if len(counted) != len(u.Corrs) {
			return false
		}
		for _, c := range counted {
			if c != 1 {
				return false
			}
		}
		// Disjointness: no element in two partitions.
		seenS, seenT := map[int]bool{}, map[int]bool{}
		for _, p := range parts {
			for _, id := range p.SourceIDs {
				if seenS[id] {
					return false
				}
				seenS[id] = true
			}
			for _, id := range p.TargetIDs {
				if seenT[id] {
					return false
				}
				seenT[id] = true
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionsAreMaximallyConnected(t *testing.T) {
	src := flatSchema(t, "S", 6)
	tgt := flatSchema(t, "T", 6)
	// Two components: {s1,s2}x{t1} and {s3}x{t3,t4}.
	u := MustNew(src, tgt, []Correspondence{
		{S: 1, T: 1, Score: 0.5},
		{S: 2, T: 1, Score: 0.5},
		{S: 3, T: 3, Score: 0.5},
		{S: 3, T: 4, Score: 0.5},
	})
	parts := u.Partitions()
	if len(parts) != 2 {
		t.Fatalf("partitions = %d, want 2", len(parts))
	}
	if parts[0].Size() != 3 || parts[1].Size() != 3 {
		t.Fatalf("sizes = %d, %d", parts[0].Size(), parts[1].Size())
	}
}

func TestStats(t *testing.T) {
	src := flatSchema(t, "S", 6)
	tgt := flatSchema(t, "T", 6)
	u := MustNew(src, tgt, []Correspondence{
		{S: 1, T: 1, Score: 0.5}, {S: 2, T: 2, Score: 0.5}, {S: 3, T: 2, Score: 0.4},
	})
	st := u.Stats()
	if st.Capacity != 3 || st.NumPartitions != 2 || st.MaxPartition != 3 {
		t.Fatalf("stats = %+v", st)
	}
	empty := MustNew(src, tgt, nil)
	st2 := empty.Stats()
	if st2.NumPartitions != 0 || st2.AvgPartition != 0 {
		t.Fatalf("empty stats = %+v", st2)
	}
}

func TestString(t *testing.T) {
	src := flatSchema(t, "S", 3)
	tgt := flatSchema(t, "T", 3)
	u := MustNew(src, tgt, nil)
	if u.String() == "" {
		t.Error("String should describe the matching")
	}
}
