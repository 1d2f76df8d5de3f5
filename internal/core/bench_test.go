package core

import (
	"testing"

	"kanon/internal/cluster"
	"kanon/internal/datagen"
	"kanon/internal/loss"
)

func benchSpace(b *testing.B, n int) (*cluster.Space, *datagen.Dataset) {
	b.Helper()
	ds := datagen.Adult(n, 1)
	em, err := loss.NewEntropy(ds.Table, ds.Hiers)
	if err != nil {
		b.Fatal(err)
	}
	s, err := cluster.NewSpace(ds.Hiers, em)
	if err != nil {
		b.Fatal(err)
	}
	return s, ds
}

func BenchmarkForest500(b *testing.B) {
	s, ds := benchSpace(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ForestCtx(nil, s, ds.Table, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkK1Nearest500(b *testing.B) {
	s, ds := benchSpace(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := K1NearestCtx(nil, s, ds.Table, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkK1Expand500(b *testing.B) {
	s, ds := benchSpace(b, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := K1ExpandCtx(nil, s, ds.Table, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMake1K500(b *testing.B) {
	s, ds := benchSpace(b, 500)
	seed, err := K1ExpandCtx(nil, s, ds.Table, 10, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := seed.Clone()
		b.StartTimer()
		if _, err := Make1KCtx(nil, s, ds.Table, g, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMakeGlobal1K500(b *testing.B) {
	s, ds := benchSpace(b, 500)
	gkk, err := KKAnonymizeCtx(nil, s, ds.Table, 10, K1ByExpansion, nil, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := gkk.Clone()
		b.StartTimer()
		if _, _, err := MakeGlobal1KCtx(nil, s, ds.Table, g, 10); err != nil {
			b.Fatal(err)
		}
	}
}
