package checkpoint

import (
	"errors"

	"cfaopc/internal/iox"
)

// ReadFS replays the journal at path without taking the append handle:
// the file is opened read-only, never truncated, and never locked, so
// an observer (an SSE reconnect replaying a finished job's event log, a
// daemon scanning job state it does not own yet) can read a journal
// that another handle is still appending to. The caller's header is
// verified like Open's (a nil one is not, and the stored header comes
// back as the first payload); valid payloads are returned in order.
//
// Torn tails are tolerated exactly as in Open — a record cut short by a
// crash (or by racing an in-flight append) simply ends the replay — but
// unlike Open the tail is left in place: repairing the file is the
// appender's job. Mid-file corruption is still an error, and a journal
// that never got its header (the creator died at birth) reads as empty.
func ReadFS(fsys iox.FS, path string, header []byte) ([][]byte, error) {
	fsys = iox.OrOS(fsys)
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	payloads, _, err := replay(f, header, path)
	if errors.Is(err, errNoHeader) {
		return nil, nil
	}
	return payloads, err
}

// ReadStoredFS is ReadFS for a caller that learns whose journal it holds
// from the journal itself: the stored header comes back unverified,
// beside the payloads, and is nil for a journal that never got one.
func ReadStoredFS(fsys iox.FS, path string) (header []byte, payloads [][]byte, err error) {
	payloads, err = ReadFS(fsys, path, nil)
	if len(payloads) == 0 {
		return nil, nil, err
	}
	return payloads[0], payloads[1:], nil
}
