package main

import (
	"math"

	"disco/internal/types"
)

// answer is what a query must return: a scalar compared with Equal, or a
// bag compared as a multiset through its fingerprint.
type answer struct {
	scalar types.Value
	bag    fingerprint
}

// fingerprint summarises a multiset independently of element order: the
// element count and two wrap-around sums of per-element hashes. Checking
// a result against it allocates nothing, so the check does not inflate
// allocs_per_q.
type fingerprint struct {
	n      int
	s1, s2 uint64
}

func (f *fingerprint) add(v types.Value) {
	h := hashValue(v)
	f.n++
	f.s1 += mix(h)
	f.s2 += mix(h ^ 0x9e3779b97f4a7c15)
}

func bagAnswer(elems ...types.Value) answer {
	var f fingerprint
	for _, e := range elems {
		f.add(e)
	}
	return answer{bag: f}
}

// matches reports whether a query result equals the expected answer.
func (a answer) matches(v types.Value) bool {
	if a.scalar != nil {
		return v != nil && a.scalar.Equal(v)
	}
	b, ok := v.(*types.Bag)
	if !ok {
		return false
	}
	var f fingerprint
	for i := 0; i < b.Len(); i++ {
		f.add(b.At(i))
	}
	return f == a.bag
}

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// hashValue hashes a value so that model-equal numbers (Int 3, Float 3)
// hash alike, as types.Equal treats them.
func hashValue(v types.Value) uint64 {
	switch x := v.(type) {
	case types.Str:
		return mix(hashString(string(x)) ^ 1)
	case types.Int:
		return mix(uint64(x) ^ 2)
	case types.Float:
		if f := float64(x); f == math.Trunc(f) && math.Abs(f) < 1<<62 {
			return mix(uint64(int64(f)) ^ 2)
		}
		return mix(math.Float64bits(float64(x)) ^ 3)
	case *types.Struct:
		h := uint64(6)
		for i := 0; i < x.Len(); i++ {
			f := x.FieldAt(i)
			h = mix(h ^ hashString(f.Name))
			h = mix(h ^ hashValue(f.Value))
		}
		return h
	default:
		// Other kinds do not occur in these workloads; hash their
		// rendering.
		return mix(hashString(v.String()) ^ 7)
	}
}
