package client

// LastSeq reports the highest event sequence delivered to this session's
// stream — the resume cursor a reconnect replays from.
func (s *Session) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}
