package xqtp

import "xqtp/internal/collection"

// PrepCacheStats is a snapshot of prepared-join tables: per (pattern,
// algorithm), the join a corpus member holds prepared against its index.
type PrepCacheStats = collection.PrepStats

// PrepStats sums the prepared-join tables and counters of the corpus's
// members. Extend shares members, so a grown corpus continues its parent's
// counts.
func (c *Corpus) PrepStats() PrepCacheStats { return c.c.PrepStats() }

// PrepStats returns the zero value: a Query owns no prepared joins — they
// live on the corpus members they were prepared against (Corpus.PrepStats).
func (q *Query) PrepStats() PrepCacheStats { return PrepCacheStats{} }
