package server

func (s *Server) tick(now int64) {
	if s.policyChanged() {
		s.sched.SetPolicy(s.policy)
	}
	s.ledger.Roll(now)
}
