package streamsummary

// CheckInvariants exposes the internal structural validator to tests.
func (s *Summary) CheckInvariants() { s.checkInvariants() }

// CheckInvariants exposes the reference implementation's validator to tests.
func (s *RefSummary) CheckInvariants() { s.checkInvariants() }
