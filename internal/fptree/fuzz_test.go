package fptree

import (
	"reflect"
	"testing"
)

// decodeFuzzTxs turns raw fuzz bytes into a bounded transaction list
// plus a mining threshold. Encoding: byte 0 picks minCount (1..4);
// each following byte < 0xF0 adds item b%7 to the current transaction
// (duplicates collapse), a byte >= 0xF0 terminates it. Sizes are
// capped so the brute-force oracle stays cheap.
func decodeFuzzTxs(data []byte) ([][]int32, float64) {
	if len(data) < 2 {
		return nil, 0
	}
	minCount := float64(1 + int(data[0])%4)
	var txs [][]int32
	cur := map[int32]bool{}
	flush := func() {
		if len(cur) == 0 {
			return
		}
		tx := make([]int32, 0, len(cur))
		for it := range cur {
			tx = append(tx, it)
		}
		txs = append(txs, tx)
		cur = map[int32]bool{}
	}
	for _, b := range data[1:] {
		if len(txs) >= 24 {
			break
		}
		if b >= 0xF0 {
			flush()
			continue
		}
		if len(cur) < 6 {
			cur[int32(b%7)] = true
		}
	}
	flush()
	if len(txs) == 0 {
		return nil, 0
	}
	return txs, minCount
}

// FuzzMine drives Build+MineWith against the exhaustive brute-force
// oracle, twice through one Miner so the reusable conditional-tree
// frames are proven not to leak state between mines.
func FuzzMine(f *testing.F) {
	f.Add([]byte{0x01, 1, 2, 3, 0xFF, 1, 2, 0xFF, 1, 3, 0xFF, 1, 0xFF, 2, 3})
	f.Add([]byte{0x00, 0, 1, 2, 3, 4, 5, 6, 0xFF, 0, 1, 2, 0xFF, 4, 5, 6})
	f.Add([]byte{0x03, 5, 5, 5, 0xFF, 5, 0xFF, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		txs, minCount := decodeFuzzTxs(data)
		if txs == nil {
			return
		}
		want := bruteForce(txs, nil, minCount)
		tree := Build(txs, nil, minCount)
		var m Miner
		for pass := 0; pass < 2; pass++ {
			got := map[string]float64{}
			for _, is := range tree.MineWith(&m, minCount) {
				got[key(is.Items)] = is.Count
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d: mined %v != brute %v (txs %v, min %v)", pass, got, want, txs, minCount)
			}
		}
		// Rebuilding into the same tree must behave like a fresh build.
		BuildInto(tree, txs, nil, minCount)
		got := map[string]float64{}
		for _, is := range tree.MineWith(&m, minCount) {
			got[key(is.Items)] = is.Count
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rebuilt tree mined %v != brute %v (txs %v, min %v)", got, want, txs, minCount)
		}
	})
}
