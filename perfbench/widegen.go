package main

import (
	"fmt"
	"math/rand"

	"eulerfd/internal/dataset"
	"eulerfd/internal/gen"
)

// plistaShapeSeed fixes the column layout of the wide-inversion relation.
// gen.WideSparseTuned draws the layout and the rows from one seed, so its
// cover size (and so the op's cost) swings with the seed; here the seed
// varies only the rows. The layout is the one WideSparseTuned draws for
// seed 1.
const plistaShapeSeed = 1

// plistaSpecs rebuilds WideSparseTuned's block-correlated layout: latent
// factor columns, then key, noise and block-derived columns.
func plistaSpecs(rows, cols int, sparsity, keyFrac float64) []gen.ColSpec {
	r := rand.New(rand.NewSource(plistaShapeSeed ^ 0x5eed))
	nblocks := max((cols-int(float64(cols)*keyFrac))/8, 2)
	specs := make([]gen.ColSpec, cols)
	for b := 0; b < nblocks && b < cols; b++ {
		specs[b] = gen.ColSpec{
			Name:   fmt.Sprintf("f%d", b),
			Kind:   gen.Categorical,
			Domain: max(rows/4, 6) + r.Intn(max(rows/4, 6)),
		}
	}
	for i := nblocks; i < cols; i++ {
		specs[i].Name = fmt.Sprintf("a%d", i)
		if r.Float64() < keyFrac {
			specs[i].Kind = gen.Key
			continue
		}
		if r.Float64() < sparsity {
			if r.Intn(2) == 0 {
				specs[i].Kind = gen.Categorical
				specs[i].Domain = 12 + r.Intn(18)
				specs[i].NullRate = 0.05 + 0.2*r.Float64()
			} else {
				specs[i].Kind = gen.Zipf
				specs[i].Domain = 8 + r.Intn(8)
			}
			continue
		}
		block := i % nblocks
		deps := []int{block}
		if r.Intn(8) == 0 {
			if other := r.Intn(nblocks); other != block {
				deps = append(deps, other)
			}
		}
		base := max(rows/2, 24)
		specs[i] = gen.ColSpec{Name: fmt.Sprintf("a%d", i), Kind: gen.Derived, DependsOn: deps, Domain: base + r.Intn(base)}
	}
	return specs
}

// plista generates the wide-inversion relation: the fixed layout filled
// with rows drawn from seed.
func plista(seed int64) *dataset.Relation {
	return gen.Generate(gen.Profile{Name: "plista", Rows: wideRows, Cols: plistaSpecs(wideRows, wideCols, 0.1, 0.3), Seed: seed})
}
