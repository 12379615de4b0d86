package core

// MarkPoolUsed marks train ids [0, n) as already used, as a Prefix of n
// examples does, on a proposer built without one.
func MarkPoolUsed(p *Proposer, n int) {
	for i := 0; i < n; i++ {
		p.state.Used[i] = true
	}
}
