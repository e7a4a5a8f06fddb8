package durable

// Seal and Open expose the envelope layer without gob, so the external
// fuzz target can check byte-identical round trips. Gob assigns wire
// type ids per process, so re-encoding a decoded value reproduces a
// blob's bytes only in the process that wrote it; the envelope itself
// must round-trip exactly everywhere.
func (f *Format) Seal(payload []byte) []byte       { return f.seal(payload) }
func (f *Format) Open(blob []byte) ([]byte, error) { return f.open(blob) }
