package memo

// Set is an insert-only set of byte-string keys. Keys are compared byte for
// byte (a Go map keyed by the string), so two distinct keys can never merge
// silently. It is NOT safe for concurrent use — the mapper's generator (its
// primary client) is single-threaded by design.
type Set struct {
	keys map[string]struct{}
}

// Insert adds key to the set, copying the bytes, and reports whether it was
// newly inserted (false = already present). The duplicate probe allocates
// nothing.
func (s *Set) Insert(key []byte) bool {
	if _, ok := s.keys[string(key)]; ok {
		return false
	}
	if s.keys == nil {
		s.keys = make(map[string]struct{})
	}
	s.keys[string(key)] = struct{}{}
	return true
}

// Len returns the number of distinct keys inserted so far.
func (s *Set) Len() int { return len(s.keys) }
