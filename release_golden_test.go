package kanon

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// This file pins the released bytes of every unconstrained pipeline, the
// byte-level companion of TestGoldenLosses: same loss is not same release.
//
// testdata/release_golden.json holds the SHA-256 of each release's WriteCSV
// bytes over {ART(120,1), ADT(140,2), CMC(130,3)} × eight pipelines ×
// workers {1,4}. It was generated once, before the per-algorithm entry
// points were collapsed and plain Algorithm 5 was folded into the
// constrained pass, and is never regenerated: it proves those refactors
// byte-identical.

type releaseGolden struct {
	Dataset string `json:"dataset"`
	Alg     string `json:"alg"`
	K       int    `json:"k"`
	Workers int    `json:"workers"`
	SHA256  string `json:"sha256"`
}

// releaseGoldenAlgs lists the pipelines of the release golden matrix.
var releaseGoldenAlgs = []string{"alg1", "alg2", "forest", "fulldomain", "chunk64", "kk-expansion", "kk-nearest", "global"}

func releaseGoldenOptions(t *testing.T, e releaseGolden) Options {
	t.Helper()
	opt := Options{K: e.K, Workers: e.Workers}
	switch e.Alg {
	case "alg1":
		opt.Notion = NotionK
	case "alg2":
		opt.Notion, opt.Modified = NotionK, true
	case "forest":
		opt.Notion, opt.Forest = NotionK, true
	case "fulldomain":
		opt.Notion, opt.FullDomain = NotionK, true
	case "chunk64":
		opt.Notion, opt.MaxChunk = NotionK, 64
	case "kk-expansion":
		opt.Notion = NotionKK
	case "kk-nearest":
		opt.Notion, opt.UseNearest = NotionKK, true
	case "global":
		opt.Notion = NotionGlobal1K
	default:
		t.Fatalf("unknown release golden alg %q", e.Alg)
	}
	return opt
}

// TestReleaseGolden replays the release golden matrix and demands the
// recorded hashes.
func TestReleaseGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/release_golden.json")
	if err != nil {
		t.Fatalf("reading golden file: %v", err)
	}
	var entries []releaseGolden
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatalf("parsing golden file: %v", err)
	}
	if want := 3 * len(releaseGoldenAlgs) * 2; len(entries) != want {
		t.Fatalf("golden file has %d entries, want %d", len(entries), want)
	}
	for _, e := range entries {
		e := e
		t.Run(fmt.Sprintf("%s_%s_w%d", e.Dataset, e.Alg, e.Workers), func(t *testing.T) {
			got := releaseHash(t, goldenTable(t, e.Dataset), releaseGoldenOptions(t, e))
			if got != e.SHA256 {
				t.Errorf("hash %s, golden %s", got, e.SHA256)
			}
		})
	}
}
