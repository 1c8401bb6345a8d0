package fsys

func (s *Shard) appendCopy(f *file, p []byte) {
	ext := s.reserve(len(p))
	copy(s.bytes(ext), p)
	f.index.Append(ext)
}
