package kanon

import (
	"fmt"
	"strings"

	"kanon/internal/cluster"
)

// OptionsError reports a rejected Options field: which field, the value it
// held, and why it was rejected. Both CLIs print it so flag errors name the
// offending option.
type OptionsError struct {
	// Field is the Options field name (e.g. "K", "Notion").
	Field string
	// Value is the offending value.
	Value interface{}
	// Reason explains the rejection.
	Reason string
}

// Error implements error.
func (e *OptionsError) Error() string {
	return fmt.Sprintf("kanon: invalid Options.%s = %v: %s", e.Field, e.Value, e.Reason)
}

// optErr builds an *OptionsError.
func optErr(field string, value interface{}, reason string) *OptionsError {
	return &OptionsError{Field: field, Value: value, Reason: reason}
}

// constraintString renders a constraint list as the OptionsError value,
// matching the -constraint CLI syntax.
func constraintString(cons []Constraint) string {
	parts := make([]string, len(cons))
	for i, c := range cons {
		if c == nil {
			parts[i] = "<nil>"
			continue
		}
		parts[i] = c.String()
	}
	return strings.Join(parts, ",")
}

// Validate checks the options without running anything, returning a typed
// *OptionsError for the first problem found (nil when the options are
// usable). Zero values that select a documented default ("" Notion/Measure/
// Distance, 0 Workers/MaxChunk) are valid. No option is silently ignored:
// one that the selected pipeline would not read is rejected. Anonymize and
// AnonymizeContext call Validate themselves; calling it separately lets a
// CLI reject a flag before loading any data.
func (opt Options) Validate() error {
	if opt.K < 1 {
		return optErr("K", opt.K, "the anonymity parameter must be ≥ 1")
	}
	switch opt.Notion {
	case "", NotionK, NotionKK, NotionGlobal1K:
	default:
		return optErr("Notion", opt.Notion, `unknown notion (want "k", "kk" or "global")`)
	}
	switch opt.Measure {
	case "", MeasureEntropy, MeasureMonotoneEntropy, MeasureLM, MeasureTree, MeasureSuppression:
	default:
		return optErr("Measure", opt.Measure,
			`unknown measure (want "entropy", "monotone-entropy", "lm", "tree" or "suppression")`)
	}
	if opt.Distance != "" && cluster.DistanceByName(opt.Distance) == nil {
		return optErr("Distance", opt.Distance, `unknown distance (want "d1".."d4" or "nc")`)
	}
	if opt.Forest && opt.FullDomain {
		return optErr("Forest", opt.Forest, "mutually exclusive with FullDomain")
	}
	if len(opt.Constraints) > 0 {
		for i, c := range opt.Constraints {
			if c == nil {
				return optErr("Constraints", i, "nil constraint")
			}
			if err := c.validate(); err != nil {
				return optErr("Constraints", c.String(), err.Error())
			}
		}
		if opt.Forest {
			return optErr("Constraints", constraintString(opt.Constraints), "not supported with the forest baseline")
		}
		if opt.FullDomain {
			return optErr("Constraints", constraintString(opt.Constraints), "not supported with the full-domain baseline")
		}
		if opt.MaxChunk > 0 {
			return optErr("Constraints", constraintString(opt.Constraints), "cannot be combined with MaxChunk")
		}
		if opt.Notion == NotionGlobal1K {
			return optErr("Constraints", constraintString(opt.Constraints),
				"not supported with NotionGlobal1K (the global pipeline ignores constraints; it would silently weaken the guarantee)")
		}
	}
	notion := opt.Notion
	if notion == "" {
		notion = NotionKK
	}
	if notion != NotionK {
		// These select or configure a NotionK algorithm; the (k,k) and
		// global pipelines would ignore them.
		switch {
		case opt.Forest:
			return optErr("Forest", opt.Forest, "requires NotionK")
		case opt.FullDomain:
			return optErr("FullDomain", opt.FullDomain, "requires NotionK")
		case opt.Modified:
			return optErr("Modified", opt.Modified, "requires NotionK")
		case opt.MaxChunk > 0:
			return optErr("MaxChunk", opt.MaxChunk, "requires NotionK (the (k,k) and global pipelines do not partition)")
		}
	}
	if opt.MaxChunk > 0 && (opt.Forest || opt.FullDomain) {
		return optErr("MaxChunk", opt.MaxChunk, "not supported with the forest or full-domain baseline")
	}
	if opt.UseNearest && notion == NotionK {
		return optErr("UseNearest", opt.UseNearest, "seeds the (k,k) and global pipelines; NotionK does not read it")
	}
	if opt.ShardDeadline < 0 {
		return optErr("ShardDeadline", opt.ShardDeadline, "must be ≥ 0")
	}
	if opt.MaxChunk <= 0 {
		// The resilience surface configures the shard supervisor of the
		// partitioned pipeline; without MaxChunk there are no shards.
		if opt.RetryPolicy != nil {
			return optErr("RetryPolicy", opt.RetryPolicy, "requires the partitioned pipeline (set MaxChunk > 0)")
		}
		if opt.ShardDeadline > 0 {
			return optErr("ShardDeadline", opt.ShardDeadline, "requires the partitioned pipeline (set MaxChunk > 0)")
		}
		if opt.OnShard != nil {
			return optErr("OnShard", "func", "requires the partitioned pipeline (set MaxChunk > 0)")
		}
		if len(opt.CompletedShards) > 0 {
			return optErr("CompletedShards", len(opt.CompletedShards), "requires the partitioned pipeline (set MaxChunk > 0)")
		}
	}
	if rp := opt.RetryPolicy; rp != nil {
		if rp.MaxAttempts < 0 {
			return optErr("RetryPolicy", rp.MaxAttempts, "MaxAttempts must be ≥ 0 (0 selects the default)")
		}
		if rp.Backoff < 0 || rp.BackoffMax < 0 {
			return optErr("RetryPolicy", rp.Backoff, "backoff durations must be ≥ 0")
		}
		if rp.Backoff > 0 && rp.BackoffMax > 0 && rp.BackoffMax < rp.Backoff {
			return optErr("RetryPolicy", rp.BackoffMax, "BackoffMax below Backoff")
		}
	}
	return nil
}
