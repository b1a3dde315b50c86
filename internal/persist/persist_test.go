package persist

// Both containers are checked against plain Go oracles (a slice, a map)
// under random edit programs that BRANCH: a program keeps a pool of
// versions, derives each new one from a random earlier one — so most
// parents get several children — and after every step compares every
// version in the pool with its own oracle. A write that leaked from one
// child into a sibling or back into the parent shows up as a mismatch on a
// version the step never touched.

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

type vecVersion struct {
	v      Vec[int]
	oracle []int
}

func checkVec(t *testing.T, ctx string, ver *vecVersion) {
	t.Helper()
	if ver.v.Len() != len(ver.oracle) {
		t.Fatalf("%s: Len %d, oracle %d", ctx, ver.v.Len(), len(ver.oracle))
	}
	for i, want := range ver.oracle {
		if got := ver.v.At(i); got != want {
			t.Fatalf("%s: At(%d) = %d, oracle %d", ctx, i, got, want)
		}
	}
	i := 0
	for j, got := range ver.v.All() {
		if j != i || got != ver.oracle[i] {
			t.Fatalf("%s: All yields (%d, %d) at position %d, oracle %d", ctx, j, got, i, ver.oracle[i])
		}
		i++
	}
	if i != len(ver.oracle) {
		t.Fatalf("%s: All yields %d elements, oracle %d", ctx, i, len(ver.oracle))
	}
}

func TestVecAgainstSliceOracleWithBranching(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Roots: built by Append, aliased from a slice (exact chunks, partial
		// tail, empty), so every origin of a shared chunk is in the pool.
		var pool []*vecVersion
		for _, n := range []int{0, 1, chunkLen, 3*chunkLen + 7, 5 * chunkLen} {
			src := make([]int, n)
			for i := range src {
				src[i] = rng.Int()
			}
			pool = append(pool, &vecVersion{FromSlice(slices.Clone(src)), src})
			built := &vecVersion{}
			for _, x := range src {
				built.v.Append(x)
			}
			built.oracle = slices.Clone(src)
			pool = append(pool, built)
		}
		for step := 0; step < 200; step++ {
			parent := pool[rng.Intn(len(pool))]
			child := &vecVersion{parent.v.Clone(), slices.Clone(parent.oracle)}
			for e := rng.Intn(12); e >= 0; e-- {
				switch op := rng.Intn(10); {
				case op < 4 && len(child.oracle) > 0:
					i, x := rng.Intn(len(child.oracle)), rng.Int()
					child.v.Set(i, x)
					child.oracle[i] = x
				case op < 8:
					for k := rng.Intn(2 * chunkLen); k >= 0; k-- {
						x := rng.Int()
						child.v.Append(x)
						child.oracle = append(child.oracle, x)
					}
				default:
					n := rng.Intn(len(child.oracle) + 1)
					child.v.Truncate(n)
					child.oracle = child.oracle[:n]
				}
			}
			pool = append(pool, child)
			if len(pool) > 24 {
				pool = slices.Delete(pool, 0, 1+rng.Intn(4))
			}
			for i, ver := range pool {
				checkVec(t, fmt.Sprintf("seed %d step %d version %d", seed, step, i), ver)
			}
		}
	}
}

// TestVecFromSliceNeverWritesSource: the aliased slice stands in for a
// read-only mapping, so no edit of any handle may reach it.
func TestVecFromSliceNeverWritesSource(t *testing.T) {
	src := make([]int, 4*chunkLen+5)
	for i := range src {
		src[i] = i
	}
	want := slices.Clone(src)
	v := FromSlice(src)
	c := v.Clone()
	for i := range src {
		c.Set(i, -1)
	}
	v.Truncate(chunkLen + 3)
	for i := 0; i < 3*chunkLen; i++ {
		v.Append(-2)
	}
	if !slices.Equal(src, want) {
		t.Fatal("an edit wrote through to the aliased slice")
	}
}

// TestVecConcurrentChildren: children of one published parent edit on their
// own goroutines while readers walk the parent (run under -race).
func TestVecConcurrentChildren(t *testing.T) {
	var parent Vec[int]
	for i := 0; i < 10*chunkLen; i++ {
		parent.Append(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			child := parent.Clone()
			for i := 0; i < child.Len(); i += 7 {
				child.Set(i, -g)
			}
			child.Truncate(3 * chunkLen)
			for i := 0; i < chunkLen; i++ {
				child.Append(g)
			}
		}()
		go func() {
			defer wg.Done()
			for i, x := range parent.All() {
				if x != i {
					t.Errorf("parent[%d] = %d", i, x)
					return
				}
			}
		}()
	}
	wg.Wait()
}

type mapVersion struct {
	m      Map[int]
	oracle map[uint64]int
}

func checkMap(t *testing.T, ctx string, ver *mapVersion, probes []uint64) {
	t.Helper()
	if ver.m.Len() != len(ver.oracle) {
		t.Fatalf("%s: Len %d, oracle %d", ctx, ver.m.Len(), len(ver.oracle))
	}
	seen := 0
	for k, v := range ver.m.All() {
		if want, ok := ver.oracle[k]; !ok || want != v {
			t.Fatalf("%s: All yields (%#x, %d), oracle (%d, %v)", ctx, k, v, want, ok)
		}
		seen++
	}
	if seen != len(ver.oracle) {
		t.Fatalf("%s: All yields %d pairs, oracle %d", ctx, seen, len(ver.oracle))
	}
	for _, k := range probes {
		got, ok := ver.m.Get(k)
		if want, has := ver.oracle[k]; ok != has || got != want {
			t.Fatalf("%s: Get(%#x) = (%d, %v), oracle (%d, %v)", ctx, k, got, ok, want, has)
		}
	}
}

func TestMapAgainstMapOracleWithBranching(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Key shapes the overlays see: dense small ids, full-width hashes,
		// and keys that agree on many low nibbles (deep splits, down to keys
		// differing in the top nibble only).
		keys := make([]uint64, 0, 400)
		for i := 0; i < 150; i++ {
			keys = append(keys, uint64(i), rng.Uint64())
		}
		for i := 0; i < 50; i++ {
			keys = append(keys, 0xabcdef0123456789&^(0xf<<(4*uint(rng.Intn(16))))|uint64(rng.Intn(16))<<(4*uint(rng.Intn(16))))
		}
		keys = append(keys, 0, ^uint64(0), 1<<60, 2<<60, 0x0fffffffffffffff, 0x1fffffffffffffff)

		pool := []*mapVersion{{oracle: map[uint64]int{}}}
		for step := 0; step < 200; step++ {
			parent := pool[rng.Intn(len(pool))]
			child := &mapVersion{parent.m, maps.Clone(parent.oracle)}
			// Two children in three derive as a batch, editing in place what
			// the batch itself made — never what a parent or sibling reads.
			var batch *Edit
			if step%3 != 0 {
				batch = new(Edit)
			}
			for e := rng.Intn(12); e >= 0; e-- {
				k, v := keys[rng.Intn(len(keys))], rng.Int()
				if rng.Intn(3) == 0 {
					k = keys[rng.Intn(8)] // the same few keys again and again within a batch
				}
				child.m = child.m.SetIn(batch, k, v)
				child.oracle[k] = v
			}
			pool = append(pool, child)
			if len(pool) > 24 {
				pool = slices.Delete(pool, 0, 1+rng.Intn(4))
			}
			for i, ver := range pool {
				checkMap(t, fmt.Sprintf("seed %d step %d version %d", seed, step, i), ver, keys)
			}
		}
	}
}

// TestMapConcurrentChildren: children of one published parent derive
// versions on their own goroutines while readers probe the parent (-race).
func TestMapConcurrentChildren(t *testing.T) {
	var parent Map[int]
	for i := 0; i < 2000; i++ {
		parent = parent.Set(uint64(i)*0x9E3779B97F4A7C15, i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			child, batch := parent, new(Edit)
			for i := 0; i < 2000; i += 3 {
				child = child.SetIn(batch, uint64(i)*0x9E3779B97F4A7C15, -g)
				child = child.SetIn(batch, uint64(i)+uint64(g)<<40, g)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if v, ok := parent.Get(uint64(i) * 0x9E3779B97F4A7C15); !ok || v != i {
					t.Errorf("parent[%d] = (%d, %v)", i, v, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}
