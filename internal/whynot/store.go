package whynot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"repro/internal/geom"
)

// Binary wire format of an ApproxStore (all integers little-endian):
//
//	magic "RSKA" | u16 version | i32 K | i32 SortDim | u32 customer count
//	per customer: i64 id | u32 corner count
//	per corner:   u16 dims | dims × f64 coordinates
//	trailer:      u32 CRC32C over every preceding byte
//
// The format is length-prefixed but every length is validated against what
// the reader can actually deliver: decoding allocates proportionally to the
// bytes read, never to a length claimed by the header, so hostile input
// cannot trigger unbounded allocation or a panic. The trailer catches
// what per-field validation cannot: a bit flip inside an otherwise plausible
// coordinate. Version-1 files (no trailer) are rejected as an unsupported
// version.
const (
	storeMagic   = "RSKA"
	storeVersion = 2
	// maxStoreDims caps point dimensionality; real datasets are ≤ ~10-d and
	// anything near the cap indicates corruption.
	maxStoreDims = 1 << 10
)

// storeCRCTable is the Castagnoli polynomial, matching the WAL's framing.
var storeCRCTable = crc32.MakeTable(crc32.Castagnoli)

// Save writes the store in a self-contained binary format (§VI.B.1 keeps the
// approximate skylines "stored (off-line)"; this is that offline artifact).
// Customers are written in ascending ID order so the output is deterministic.
func (s *ApproxStore) Save(w io.Writer) error {
	ids := make([]int, 0, len(s.corners))
	for id := range s.corners {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	bw := bufio.NewWriter(w)
	crc := crc32.New(storeCRCTable)
	var scratch [8]byte
	// Every byte up to the trailer goes through the CRC; hash.Hash.Write
	// never errors.
	put := func(b []byte) error {
		if _, err := bw.Write(b); err != nil {
			return err
		}
		crc.Write(b)
		return nil
	}
	if err := put([]byte(storeMagic)); err != nil {
		return err
	}
	putU16 := func(v uint16) error {
		binary.LittleEndian.PutUint16(scratch[:2], v)
		return put(scratch[:2])
	}
	putU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		return put(scratch[:4])
	}
	putU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		return put(scratch[:8])
	}
	if err := putU16(storeVersion); err != nil {
		return err
	}
	if err := putU32(uint32(int32(s.K))); err != nil {
		return err
	}
	if err := putU32(uint32(int32(s.SortDim))); err != nil {
		return err
	}
	if err := putU32(uint32(len(ids))); err != nil {
		return err
	}
	for _, id := range ids {
		if err := putU64(uint64(int64(id))); err != nil {
			return err
		}
		corners := s.corners[id]
		if err := putU32(uint32(len(corners))); err != nil {
			return err
		}
		for _, c := range corners {
			if len(c) > maxStoreDims {
				return fmt.Errorf("whynot: approx store: customer %d has %d-d corner (max %d)", id, len(c), maxStoreDims)
			}
			if err := putU16(uint16(len(c))); err != nil {
				return err
			}
			for _, x := range c {
				if err := putU64(math.Float64bits(x)); err != nil {
					return err
				}
			}
		}
	}
	// Trailer: CRC32C over everything above, written outside the hash.
	binary.LittleEndian.PutUint32(scratch[:4], crc.Sum32())
	if _, err := bw.Write(scratch[:4]); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadApproxStore reads a store written by Save. It rejects malformed input
// with a descriptive error instead of panicking: bad magic or version,
// truncated sections, duplicate customer IDs, oversized or inconsistent
// dimensionality, and non-finite coordinates are all reported explicitly.
func LoadApproxStore(r io.Reader) (*ApproxStore, error) {
	br := bufio.NewReader(r)
	crc := crc32.New(storeCRCTable)
	var scratch [8]byte
	// readN feeds the running CRC; the trailer itself is read raw below,
	// after the body, so the sum covers exactly what Save hashed.
	readN := func(n int, what string) error {
		if _, err := io.ReadFull(br, scratch[:n]); err != nil {
			return fmt.Errorf("whynot: approx store: truncated %s: %w", what, err)
		}
		crc.Write(scratch[:n])
		return nil
	}
	readU16 := func(what string) (uint16, error) {
		if err := readN(2, what); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint16(scratch[:2]), nil
	}
	readU32 := func(what string) (uint32, error) {
		if err := readN(4, what); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	readU64 := func(what string) (uint64, error) {
		if err := readN(8, what); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}

	if err := readN(4, "magic"); err != nil {
		return nil, err
	}
	if string(scratch[:4]) != storeMagic {
		return nil, fmt.Errorf("whynot: approx store: bad magic %q (not an approx store)", scratch[:4])
	}
	version, err := readU16("version")
	if err != nil {
		return nil, err
	}
	if version != storeVersion {
		return nil, fmt.Errorf("whynot: approx store: unsupported version %d (want %d)", version, storeVersion)
	}
	k, err := readU32("K")
	if err != nil {
		return nil, err
	}
	sortDim, err := readU32("sort dimension")
	if err != nil {
		return nil, err
	}
	count, err := readU32("customer count")
	if err != nil {
		return nil, err
	}

	// Capacity hints are capped: allocation must track bytes actually read,
	// not lengths a hostile header claims.
	s := &ApproxStore{
		K:       int(int32(k)),
		SortDim: int(int32(sortDim)),
		corners: make(map[int][]geom.Point, min(int(count), 1<<12)),
	}
	dims := -1 // dimensionality once observed; -1 until the first corner
	for i := uint32(0); i < count; i++ {
		rawID, err := readU64(fmt.Sprintf("customer %d id", i))
		if err != nil {
			return nil, err
		}
		id := int(int64(rawID))
		if _, dup := s.corners[id]; dup {
			return nil, fmt.Errorf("whynot: approx store: duplicate customer id %d", id)
		}
		ncorners, err := readU32(fmt.Sprintf("customer %d corner count", id))
		if err != nil {
			return nil, err
		}
		cs := make([]geom.Point, 0, min(int(ncorners), 1<<12))
		for j := uint32(0); j < ncorners; j++ {
			d, err := readU16(fmt.Sprintf("customer %d corner %d dims", id, j))
			if err != nil {
				return nil, err
			}
			if int(d) > maxStoreDims {
				return nil, fmt.Errorf("whynot: approx store: customer %d corner %d claims %d dims (max %d)", id, j, d, maxStoreDims)
			}
			if dims == -1 {
				dims = int(d)
			} else if int(d) != dims {
				return nil, fmt.Errorf("whynot: approx store: customer %d corner %d has %d dims, want %d", id, j, d, dims)
			}
			p := make(geom.Point, d)
			for m := range p {
				bits, err := readU64(fmt.Sprintf("customer %d corner %d coordinate %d", id, j, m))
				if err != nil {
					return nil, err
				}
				x := math.Float64frombits(bits)
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return nil, fmt.Errorf("whynot: approx store: customer %d corner %d has non-finite coordinate %d", id, j, m)
				}
				p[m] = x
			}
			cs = append(cs, p)
		}
		s.corners[id] = cs
	}
	// The sum must be captured before the trailer read touches scratch.
	want := crc.Sum32()
	if _, err := io.ReadFull(br, scratch[:4]); err != nil {
		return nil, fmt.Errorf("whynot: approx store: truncated checksum trailer: %w", err)
	}
	if got := binary.LittleEndian.Uint32(scratch[:4]); got != want {
		return nil, fmt.Errorf("whynot: approx store: checksum mismatch: trailer %08x, computed %08x (corrupt or torn file)", got, want)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("whynot: approx store: trailing data after %d customers", count)
	}
	return s, nil
}

// Len returns the number of customers with precomputed corners.
func (s *ApproxStore) Len() int { return len(s.corners) }
