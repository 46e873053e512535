package sketch

// SpaceSavingList is the list-based SpaceSaving sketch over real-valued
// (exponentially decayed) counts: counters live in a doubly linked list
// kept sorted ascending by count. An increment repositions its counter
// by traversing toward the tail, which is O(1) for skewed integer
// streams but degrades to long traversals once decayed, non-integer
// counts spread the list out — the effect Figure 6 measures against
// AMC ("list traversal is costly for decayed, non-integer counts").
type SpaceSavingList[K comparable] struct {
	k     int
	nodes map[K]*ssNode[K]
	head  *ssNode[K] // minimum count
	tail  *ssNode[K] // maximum count
	size  int
}

type ssNode[K comparable] struct {
	item       K
	count      float64
	err        float64
	prev, next *ssNode[K]
}

// NewSpaceSavingList returns a sketch with k counters (ε = 1/k).
func NewSpaceSavingList[K comparable](k int) *SpaceSavingList[K] {
	if k <= 0 {
		panic("sketch: SpaceSaving size must be positive")
	}
	return &SpaceSavingList[K]{k: k, nodes: make(map[K]*ssNode[K], k)}
}

// Observe adds c to item i's count, repositioning its counter within
// the sorted list.
func (s *SpaceSavingList[K]) Observe(i K, c float64) {
	if n, ok := s.nodes[i]; ok {
		n.count += c
		s.moveUp(n)
		return
	}
	if s.size < s.k {
		n := &ssNode[K]{item: i, count: c}
		s.nodes[i] = n
		s.insertFromHead(n)
		s.size++
		return
	}
	// Evict the minimum counter (head) and reuse its node.
	n := s.head
	delete(s.nodes, n.item)
	n.item = i
	n.err = n.count
	n.count += c
	s.nodes[i] = n
	s.unlink(n)
	s.insertFromHead(n)
}

// Count returns the estimated count for i and whether it is monitored.
func (s *SpaceSavingList[K]) Count(i K) (float64, bool) {
	n, ok := s.nodes[i]
	if !ok {
		return 0, false
	}
	return n.count, true
}

// Decay multiplies every count by retain. Relative order is preserved
// so the list structure is untouched, but subsequent increments must
// traverse the now-spread-out counts.
func (s *SpaceSavingList[K]) Decay(retain float64) {
	for n := s.head; n != nil; n = n.next {
		n.count *= retain
		n.err *= retain
	}
}

// Len reports the number of monitored items.
func (s *SpaceSavingList[K]) Len() int { return s.size }

// moveUp walks n toward the tail until the ascending order is
// restored; this traversal is the list variant's hot-path cost.
func (s *SpaceSavingList[K]) moveUp(n *ssNode[K]) {
	if n.next == nil || n.next.count >= n.count {
		return
	}
	after := n.next
	s.unlink(n)
	for after.next != nil && after.next.count < n.count {
		after = after.next
	}
	// Insert n immediately after 'after'.
	n.prev = after
	n.next = after.next
	if after.next != nil {
		after.next.prev = n
	} else {
		s.tail = n
	}
	after.next = n
}

// insertFromHead inserts n scanning from the minimum end.
func (s *SpaceSavingList[K]) insertFromHead(n *ssNode[K]) {
	if s.head == nil {
		n.prev, n.next = nil, nil
		s.head, s.tail = n, n
		return
	}
	cur := s.head
	for cur != nil && cur.count < n.count {
		cur = cur.next
	}
	if cur == nil { // new maximum
		n.prev, n.next = s.tail, nil
		s.tail.next = n
		s.tail = n
		return
	}
	n.next = cur
	n.prev = cur.prev
	if cur.prev != nil {
		cur.prev.next = n
	} else {
		s.head = n
	}
	cur.prev = n
}

func (s *SpaceSavingList[K]) unlink(n *ssNode[K]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
