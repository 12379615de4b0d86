package core

import "sort"

// MarkPoolUsed marks train ids [0, n) as already used, as a Prefix of n
// examples does, on a proposer built without one.
func MarkPoolUsed(p *Proposer, n int) {
	for i := 0; i < n; i++ {
		p.state.Used[i] = true
	}
}

// CachedColumns returns the LF names whose columns p caches, sorted.
func CachedColumns(p *Prefix) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, 0, len(p.cols))
	for name := range p.cols {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SeededColumns returns how many columns p's vote matrix holds before
// any evaluation: the frozen columns NewProposer took from its prefix.
func SeededColumns(p *Proposer) int {
	if p.ev.vm == nil {
		return 0
	}
	return p.ev.vm.NumLFs()
}
