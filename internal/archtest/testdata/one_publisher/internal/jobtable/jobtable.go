package jobtable

// Observe records a request's sighting and hands the set over itself: a
// second publisher beside Refresh.
func (t *Table) Observe(j Job) {
	t.jobs[j.ID] = j
	t.pub = t.active()
}

func (t *Table) Refresh() []Job {
	t.pub = t.active()
	return t.pub
}
