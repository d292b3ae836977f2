package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Model persistence: training is allowed to be expensive (Section 3.1),
// so deployments train offline and ship the model to operators. The
// format is a small versioned binary layout with a CRC32 trailer:
//
//	magic "ESPM" | version u16 | types u32 | n u32 | binSize u32 |
//	windows u64 | matches u64 | UT bytes | shares f64s | crc32 u32
//
// All integers are little-endian.

const (
	persistMagic   = "ESPM"
	persistVersion = 1
)

// Save writes the model to w.
func (m *Model) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	out := io.MultiWriter(bw, crc)

	if _, err := out.Write([]byte(persistMagic)); err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	hdr := []any{
		uint16(persistVersion),
		uint32(m.ut.types),
		uint32(m.ut.n),
		uint32(m.ut.binSize),
		uint64(m.windows),
		uint64(m.matches),
	}
	for _, v := range hdr {
		if err := binary.Write(out, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("core: save model header: %w", err)
		}
	}
	if _, err := out.Write(m.ut.vals); err != nil {
		return fmt.Errorf("core: save utility table: %w", err)
	}
	for _, s := range m.shares {
		if err := binary.Write(out, binary.LittleEndian, math.Float64bits(s)); err != nil {
			return fmt.Errorf("core: save shares: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return fmt.Errorf("core: save checksum: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	return nil
}

// LoadModel reads a model written by Save, verifying the checksum.
func LoadModel(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	crc := crc32.NewIEEE()
	in := io.TeeReader(br, crc)

	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(in, magic); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	if string(magic) != persistMagic {
		return nil, fmt.Errorf("core: load model: bad magic %q", magic)
	}
	var (
		version          uint16
		types, n, bs     uint32
		windows, matches uint64
	)
	for _, v := range []any{&version, &types, &n, &bs, &windows, &matches} {
		if err := binary.Read(in, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("core: load model header: %w", err)
		}
	}
	if version != persistVersion {
		return nil, fmt.Errorf("core: load model: unsupported version %d", version)
	}
	const maxDim = 1 << 24 // sanity bound against corrupted headers
	if types == 0 || n == 0 || bs == 0 || types > maxDim || n > maxDim {
		return nil, fmt.Errorf("core: load model: implausible dimensions %dx%d/bs=%d", types, n, bs)
	}
	ut, err := NewUtilityTable(int(types), int(n), int(bs))
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	if _, err := io.ReadFull(in, ut.vals); err != nil {
		return nil, fmt.Errorf("core: load utility table: %w", err)
	}
	shares := make([]float64, int(types)*ut.Bins())
	for i := range shares {
		var bits uint64
		if err := binary.Read(in, binary.LittleEndian, &bits); err != nil {
			return nil, fmt.Errorf("core: load shares: %w", err)
		}
		shares[i] = math.Float64frombits(bits)
	}
	want := crc.Sum32()
	var got uint32
	if err := binary.Read(br, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("core: load checksum: %w", err)
	}
	if got != want {
		return nil, fmt.Errorf("core: load model: checksum mismatch (file %08x, computed %08x)", got, want)
	}
	return &Model{
		ut:      ut,
		shares:  shares,
		n:       int(n),
		windows: int(windows),
		matches: int(matches),
	}, nil
}
