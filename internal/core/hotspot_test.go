package core

import (
	"maps"
	"strings"
	"testing"

	"disco/internal/types"
)

// TestHotShardsDetected: skewed point-query traffic marks the busy shard hot
// with a rebalance recommendation, and Explain surfaces it.
func TestHotShardsDetected(t *testing.T) {
	m, _, _ := migMediator(t)
	if hot := m.HotShards(); len(hot) != 0 {
		t.Fatalf("cold mediator reports hot shards: %v", hot)
	}
	// 40 of 48 reads hit r1's range: share 5/6 >= 2 * fair share 1/3.
	for i := 0; i < 40; i++ {
		m.MustQuery(`select x.name from x in people where x.id = 15`)
	}
	for i := 0; i < 4; i++ {
		m.MustQuery(`select x.name from x in people where x.id = 5`)
		m.MustQuery(`select x.name from x in people where x.id = 25`)
	}
	hot := m.HotShards()
	if len(hot) != 1 {
		t.Fatalf("hot shards = %v, want exactly people@r1", hot)
	}
	hs := hot[0]
	if hs.Shard != "people@r1" || hs.Extent != "people" || hs.Repo != "r1" {
		t.Errorf("hot shard = %+v", hs)
	}
	if hs.Reads != 40 || hs.Share < 0.8 || hs.Share > 0.9 {
		t.Errorf("hot shard reads=%d share=%.2f, want 40 reads at ~83%%", hs.Reads, hs.Share)
	}
	// A range shard's advice offers the split.
	if !strings.Contains(hs.Advice, "split people@r1") {
		t.Errorf("advice = %q, want a split recommendation", hs.Advice)
	}

	report, err := m.Explain(`select x from x in people`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "hot shards: people@r1 (83%)") {
		t.Errorf("explain lacks the hot-shard line:\n%s", report)
	}
	if !strings.Contains(report, "rebalance: split people@r1") {
		t.Errorf("explain lacks the rebalance advice:\n%s", report)
	}
}

// TestHotShardsNeedMinimumTraffic: below the sample floor nothing is hot, no
// matter how skewed.
func TestHotShardsNeedMinimumTraffic(t *testing.T) {
	m, _, _ := migMediator(t)
	for i := 0; i < int(HotShardMinReads)-1; i++ {
		m.MustQuery(`select x.name from x in people where x.id = 15`)
	}
	if hot := m.HotShards(); len(hot) != 0 {
		t.Errorf("under-sampled traffic reports hot shards: %v", hot)
	}
}

// TestHotShardAdviceForHashShard: a hash shard cannot split a range, so the
// advice is a move.
func TestHotShardAdviceForHashShard(t *testing.T) {
	m, _ := hashMediator(t, 4, 16)
	for i := 0; i < 32; i++ {
		m.MustQuery(`select x.name from x in people where x.id = 1`)
	}
	hot := m.HotShards()
	if len(hot) != 1 {
		t.Fatalf("hot shards = %v, want one", hot)
	}
	if !strings.HasPrefix(hot[0].Advice, "move ") || strings.Contains(hot[0].Advice, "split") {
		t.Errorf("hash shard advice = %q, want a move", hot[0].Advice)
	}
}

// TestTraceShardReads: a traced query reports which shards it read, and
// balanced traffic reports no hot shards.
func TestTraceShardReads(t *testing.T) {
	m, _, _ := migMediator(t)
	_, tr, err := m.QueryTraced(`select x.name from x in people where x.id >= 10 and x.id < 20`)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.ShardReads) != 1 || tr.ShardReads["people@r1"] != 1 {
		t.Errorf("trace shard reads = %v, want people@r1=1", tr.ShardReads)
	}
	if !strings.Contains(tr.String(), "shard reads people@r1=1") {
		t.Errorf("trace string lacks the shard-read line:\n%s", tr)
	}
	_, tr, err = m.QueryTraced(`select x from x in people`)
	if err != nil {
		t.Fatal(err)
	}
	for _, shard := range []string{"people@r0", "people@r1", "people@r2"} {
		if tr.ShardReads[shard] != 1 {
			t.Errorf("full scan trace reads %v, want one read per shard", tr.ShardReads)
			break
		}
	}
	// The counters aggregate across queries.
	traffic := m.ShardTraffic()
	if traffic["people@r1"] != 2 {
		t.Errorf("aggregate traffic = %v, want people@r1=2", traffic)
	}
	if hot := m.HotShards(); len(hot) != 0 {
		t.Errorf("balanced traffic reports hot shards: %v", hot)
	}
	// A nested subquery's reads count against the query that resolved it.
	_, tr, err = m.QueryTraced(`select struct(n: x.name, c: count(select y from y in people)) from x in people where x.id = 15`)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int64{"people@r0": 1, "people@r1": 2, "people@r2": 1}; !maps.Equal(tr.ShardReads, want) {
		t.Errorf("nested subquery trace reads %v, want %v", tr.ShardReads, want)
	}
}

// TestShardTrafficSkipsStandby: dual-read fan-out counts one logical read
// for the migrating shard, not two — migration must not inflate its own
// hotspot signal.
func TestShardTrafficSkipsStandby(t *testing.T) {
	m, _, _ := migMediator(t)
	if err := m.BeginShardMove("people", "r1", "r3"); err != nil {
		t.Fatal(err)
	}
	advance(t, m, "people", "copying", false)
	advance(t, m, "people", "dual-read", false)
	before := m.ShardTraffic()
	got := m.MustQuery(`select x.name from x in people where x.id = 15`)
	if !got.Equal(types.NewBag(types.Str("p15"))) {
		t.Fatalf("dual-read query = %s", got)
	}
	after := m.ShardTraffic()
	if d := after["people@r1"] - before["people@r1"]; d != 1 {
		t.Errorf("dual-read added %d reads for people@r1, want 1", d)
	}
	if d := after["people@r3"] - before["people@r3"]; d != 0 {
		t.Errorf("standby branch counted %d reads for people@r3, want 0", d)
	}
}
