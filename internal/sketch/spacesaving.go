package sketch

// SpaceSavingHeap is the heap-based SpaceSaving sketch (Metwally et
// al.): k counters kept in a min-heap; an unmonitored arrival replaces
// the minimum counter, inheriting its count as error. Updates cost
// O(log k), which Figure 6 shows dominating at large sketch sizes.
type SpaceSavingHeap[K comparable] struct {
	k     int
	pos   map[K]int
	items []ssEntry[K]
}

type ssEntry[K comparable] struct {
	item  K
	count float64
	err   float64
}

// NewSpaceSavingHeap returns a sketch with k counters (ε = 1/k).
func NewSpaceSavingHeap[K comparable](k int) *SpaceSavingHeap[K] {
	if k <= 0 {
		panic("sketch: SpaceSaving size must be positive")
	}
	return &SpaceSavingHeap[K]{k: k, pos: make(map[K]int, k)}
}

// Observe adds c to item i's count.
func (s *SpaceSavingHeap[K]) Observe(i K, c float64) {
	if idx, ok := s.pos[i]; ok {
		s.items[idx].count += c
		s.siftDown(idx)
		return
	}
	if len(s.items) < s.k {
		s.items = append(s.items, ssEntry[K]{item: i, count: c})
		idx := len(s.items) - 1
		s.pos[i] = idx
		s.siftUp(idx)
		return
	}
	// Replace the minimum counter.
	min := &s.items[0]
	delete(s.pos, min.item)
	s.pos[i] = 0
	min.err = min.count
	min.count += c
	min.item = i
	s.siftDown(0)
}

// Count returns the estimated count for i and whether it is monitored.
func (s *SpaceSavingHeap[K]) Count(i K) (float64, bool) {
	idx, ok := s.pos[i]
	if !ok {
		return 0, false
	}
	return s.items[idx].count, true
}

// Decay multiplies every count by retain; heap order is preserved
// under uniform scaling so no restructuring is needed.
func (s *SpaceSavingHeap[K]) Decay(retain float64) {
	for i := range s.items {
		s.items[i].count *= retain
		s.items[i].err *= retain
	}
}

// Len reports the number of monitored items.
func (s *SpaceSavingHeap[K]) Len() int { return len(s.items) }

func (s *SpaceSavingHeap[K]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if s.items[parent].count <= s.items[i].count {
			return
		}
		s.swap(i, parent)
		i = parent
	}
}

func (s *SpaceSavingHeap[K]) siftDown(i int) {
	n := len(s.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && s.items[l].count < s.items[small].count {
			small = l
		}
		if r < n && s.items[r].count < s.items[small].count {
			small = r
		}
		if small == i {
			return
		}
		s.swap(i, small)
		i = small
	}
}

func (s *SpaceSavingHeap[K]) swap(i, j int) {
	s.items[i], s.items[j] = s.items[j], s.items[i]
	s.pos[s.items[i].item] = i
	s.pos[s.items[j].item] = j
}
