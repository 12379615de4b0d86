package serve

// SetBeforeBatch installs a hook run at the head of every process()
// call with the batch's text count. Test-only: the coalescing tests use
// it to hold the batch loop still while they fill the queue
// deterministically.
func (s *Server) SetBeforeBatch(f func(size int)) { s.beforeBatch = f }

// Closing reports whether Close has begun.
func (s *Server) Closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}
