package server

// recover adopts a dead member's stripes into the local shard: a second
// re-layout path beside the migrator.
func (s *Server) recover(fi fileInfo, fill filler) error {
	return s.shard.RestoreFile(fi, fill)
}
