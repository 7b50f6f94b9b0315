package sat

// varOrder is the branching order: a binary heap of variables with the
// highest activity on top and, among equal activities, the lowest
// variable — the variable a linear scan for the strictly greatest
// activity would find first. The solver keeps every unassigned variable
// in it; assigned ones may linger until they surface at the top.
type varOrder struct {
	act  *[]float64 // the solver's activity table, by variable
	heap []int      // variables
	pos  []int      // by variable: its index in heap, -1 when absent
}

// before reports whether variable a goes above variable b.
func (o *varOrder) before(a, b int) bool {
	act := *o.act
	return act[a] > act[b] || act[a] == act[b] && a < b
}

// push inserts v unless it is already in the order.
func (o *varOrder) push(v int) {
	for len(o.pos) <= v {
		o.pos = append(o.pos, -1)
	}
	if o.pos[v] >= 0 {
		return
	}
	o.pos[v] = len(o.heap)
	o.heap = append(o.heap, v)
	o.up(o.pos[v])
}

// pop removes and returns the top variable. The order must not be empty.
func (o *varOrder) pop() int {
	v := o.heap[0]
	last := o.heap[len(o.heap)-1]
	o.heap = o.heap[:len(o.heap)-1]
	o.pos[v] = -1
	if len(o.heap) > 0 {
		o.heap[0] = last
		o.pos[last] = 0
		o.down(0)
	}
	return v
}

// raised restores the order after v's activity grew.
func (o *varOrder) raised(v int) {
	if v < len(o.pos) && o.pos[v] >= 0 {
		o.up(o.pos[v])
	}
}

// rebuild restores the order after arbitrary activity changes.
func (o *varOrder) rebuild() {
	for i := len(o.heap)/2 - 1; i >= 0; i-- {
		o.down(i)
	}
}

func (o *varOrder) up(i int) {
	v := o.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !o.before(v, o.heap[p]) {
			break
		}
		o.heap[i] = o.heap[p]
		o.pos[o.heap[i]] = i
		i = p
	}
	o.heap[i] = v
	o.pos[v] = i
}

func (o *varOrder) down(i int) {
	v := o.heap[i]
	n := len(o.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && o.before(o.heap[c+1], o.heap[c]) {
			c++
		}
		if !o.before(o.heap[c], v) {
			break
		}
		o.heap[i] = o.heap[c]
		o.pos[o.heap[i]] = i
		i = c
	}
	o.heap[i] = v
	o.pos[v] = i
}
