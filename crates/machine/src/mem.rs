//! Sparse paged memory.
//!
//! The MicroVM address space is 64-bit and almost entirely unmapped;
//! memory is materialized in 4 KiB pages on first write. Reads of mapped
//! pages return stored bytes; reads of unmapped addresses are a *policy*
//! decision made by the caller (the interpreter faults, while coredump
//! tooling treats them as absent), so [`Memory`] itself exposes
//! `Option`-returning accessors alongside zero-default conveniences.

use std::collections::BTreeMap;

use mvm_json::{FromJson, Json, JsonError, Reader, ToJson};

use mvm_isa::Width;

/// Size of a memory page in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// What an unmapped page compares as.
static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];

/// Sparse byte-addressable memory backed by 4 KiB pages.
///
/// Pages are stored in a `BTreeMap` so iteration (snapshotting into a
/// coredump, diffing two dumps) is deterministic and ordered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Memory {
    pages: BTreeMap<u64, Vec<u8>>,
}

impl ToJson for Memory {
    fn to_json(&self) -> Json {
        Json::Obj(vec![("pages".to_string(), self.pages.to_json())])
    }
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"pages\":");
        self.pages.write_json(out);
        out.push('}');
    }
}

/// Accepts only whole pages at page-aligned bases, so every `Memory`
/// holds `PAGE_SIZE`-byte pages whatever its source: the accessors index
/// into a page and [`Memory::diff`] compares whole pages.
impl FromJson for Memory {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let obj = v.as_obj().ok_or_else(|| JsonError::expected("Memory", v))?;
        let pages: BTreeMap<u64, Vec<u8>> = mvm_json::field(obj, "pages", "Memory")?;
        check_pages(&pages)?;
        Ok(Memory { pages })
    }
    fn read_json(r: &mut Reader<'_>) -> Option<Self> {
        let mut pages = None;
        r.object(|r, key| {
            if key != "pages" || pages.is_some() {
                return None;
            }
            pages = Some(BTreeMap::read_json(r)?);
            Some(())
        })?;
        let pages = pages?;
        check_pages(&pages).ok()?;
        Some(Memory { pages })
    }
}

fn check_pages(pages: &BTreeMap<u64, Vec<u8>>) -> Result<(), JsonError> {
    for (base, page) in pages {
        if base % PAGE_SIZE != 0 {
            return Err(JsonError::msg(format!(
                "Memory.pages[\"{base}\"]: page base {base:#x} is not {PAGE_SIZE}-byte aligned"
            )));
        }
        if page.len() as u64 != PAGE_SIZE {
            return Err(JsonError::msg(format!(
                "Memory.pages[\"{base}\"]: page at {base:#x} holds {} bytes, not {PAGE_SIZE}",
                page.len()
            )));
        }
    }
    Ok(())
}

impl Memory {
    /// Creates an empty (fully unmapped) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of materialized pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Returns `true` if the page containing `addr` is materialized.
    pub fn is_mapped(&self, addr: u64) -> bool {
        self.pages.contains_key(&(addr & !(PAGE_SIZE - 1)))
    }

    /// Reads one byte, or `None` if the page is unmapped.
    pub fn read_byte(&self, addr: u64) -> Option<u8> {
        let page = self.pages.get(&(addr & !(PAGE_SIZE - 1)))?;
        Some(page[(addr % PAGE_SIZE) as usize])
    }

    /// Writes one byte, materializing the page if needed.
    pub fn write_byte(&mut self, addr: u64, value: u8) {
        let base = addr & !(PAGE_SIZE - 1);
        let page = self
            .pages
            .entry(base)
            .or_insert_with(|| vec![0u8; PAGE_SIZE as usize]);
        page[(addr % PAGE_SIZE) as usize] = value;
    }

    /// Reads a little-endian value of the given width, zero-extending to
    /// 64 bits. Unmapped bytes read as zero.
    pub fn read(&self, addr: u64, width: Width) -> u64 {
        let mut out = 0u64;
        for i in 0..width.bytes() {
            let b = self.read_byte(addr.wrapping_add(i)).unwrap_or(0);
            out |= (b as u64) << (8 * i);
        }
        out
    }

    /// Reads a value only if *every* byte is mapped.
    pub fn read_mapped(&self, addr: u64, width: Width) -> Option<u64> {
        let mut out = 0u64;
        for i in 0..width.bytes() {
            out |= (self.read_byte(addr.wrapping_add(i))? as u64) << (8 * i);
        }
        Some(out)
    }

    /// Writes the low `width` bytes of `value` little-endian.
    pub fn write(&mut self, addr: u64, value: u64, width: Width) {
        for i in 0..width.bytes() {
            self.write_byte(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    /// Copies a byte slice into memory.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_byte(addr.wrapping_add(i as u64), b);
        }
    }

    /// Reads `len` bytes, substituting zero for unmapped bytes.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_byte(addr.wrapping_add(i as u64)).unwrap_or(0))
            .collect()
    }

    /// Ensures the pages covering `[addr, addr+len)` are materialized
    /// (zero-filled), e.g. for stack reservations.
    pub fn map_zeroed(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr & !(PAGE_SIZE - 1);
        let last = (addr + len - 1) & !(PAGE_SIZE - 1);
        let mut base = first;
        loop {
            self.pages
                .entry(base)
                .or_insert_with(|| vec![0u8; PAGE_SIZE as usize]);
            if base == last {
                break;
            }
            base += PAGE_SIZE;
        }
    }

    /// Iterates over `(page_base, bytes)` pairs in address order.
    pub fn iter_pages(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.pages.iter().map(|(&b, p)| (b, p.as_slice()))
    }

    /// Deep-copies another memory's pages into this one (overwriting
    /// overlapping pages).
    pub fn overlay_from(&mut self, other: &Memory) {
        for (base, page) in other.iter_pages() {
            self.pages.insert(base, page.to_vec());
        }
    }

    /// The page at `base`, or the zero page when it is unmapped.
    fn page_or_zero(&self, base: u64) -> &[u8] {
        self.pages.get(&base).map_or(&ZERO_PAGE, Vec::as_slice)
    }

    /// Addresses (at byte granularity) where two memories differ,
    /// considering unmapped bytes equal to zero, in address order.
    /// Capped at `limit` results.
    ///
    /// Pages are compared whole (an unmapped page as a zero page); only
    /// a page that differs is scanned byte by byte.
    pub fn diff(&self, other: &Memory, limit: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let mut bases: Vec<u64> = self
            .pages
            .keys()
            .chain(other.pages.keys())
            .copied()
            .collect();
        bases.sort_unstable();
        bases.dedup();
        for base in bases {
            let (a, b) = (self.page_or_zero(base), other.page_or_zero(base));
            if a == b {
                continue;
            }
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                if x != y {
                    out.push(base + i as u64);
                    if out.len() >= limit {
                        return out;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_default_to_zero() {
        let m = Memory::new();
        assert_eq!(m.read(0x1234, Width::W8), 0);
        assert_eq!(m.read_byte(0x1234), None);
        assert_eq!(m.read_mapped(0x1234, Width::W1), None);
        assert!(!m.is_mapped(0x1234));
    }

    #[test]
    fn write_read_round_trip_all_widths() {
        let mut m = Memory::new();
        for (w, val) in [
            (Width::W1, 0xab),
            (Width::W2, 0xabcd),
            (Width::W4, 0xdead_beef),
            (Width::W8, 0x0123_4567_89ab_cdef),
        ] {
            m.write(0x9000, val, w);
            assert_eq!(m.read(0x9000, w), val & w.mask());
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write(0x100, 0x0102_0304_0506_0708, Width::W8);
        assert_eq!(m.read_byte(0x100), Some(0x08));
        assert_eq!(m.read_byte(0x107), Some(0x01));
        assert_eq!(m.read(0x100, Width::W4), 0x0506_0708);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_SIZE - 4;
        m.write(addr, 0x1122_3344_5566_7788, Width::W8);
        assert_eq!(m.read(addr, Width::W8), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
        assert_eq!(m.read_mapped(addr, Width::W8), Some(0x1122_3344_5566_7788));
    }

    #[test]
    fn truncation_on_narrow_write() {
        let mut m = Memory::new();
        m.write(0x200, u64::MAX, Width::W8);
        m.write(0x200, 0, Width::W1);
        assert_eq!(m.read(0x200, Width::W8), u64::MAX & !0xff);
    }

    #[test]
    fn map_zeroed_materializes_pages() {
        let mut m = Memory::new();
        m.map_zeroed(0x1000, 2 * PAGE_SIZE);
        assert!(m.is_mapped(0x1000));
        assert!(m.is_mapped(0x1000 + 2 * PAGE_SIZE - 1));
        assert_eq!(m.read_byte(0x1000), Some(0));
        m.map_zeroed(0x5000, 0);
    }

    #[test]
    fn diff_finds_changed_bytes() {
        let mut a = Memory::new();
        let mut b = Memory::new();
        a.write(0x300, 5, Width::W1);
        b.write(0x300, 6, Width::W1);
        b.write(0x9000, 1, Width::W1);
        let d = a.diff(&b, 10);
        assert_eq!(d, vec![0x300, 0x9000]);
        assert_eq!(a.diff(&b, 1).len(), 1);
    }

    #[test]
    fn diff_treats_unmapped_as_zero() {
        let mut a = Memory::new();
        a.write(0x300, 0, Width::W8);
        let b = Memory::new();
        assert!(a.diff(&b, 10).is_empty());
        assert!(b.diff(&a, 10).is_empty());
    }

    /// The byte-wise definition [`Memory::diff`] must keep: every
    /// address of every page either side maps, unmapped bytes reading
    /// as zero.
    fn diff_bytewise(a: &Memory, b: &Memory, limit: usize) -> Vec<u64> {
        let mut bases: Vec<u64> = a.pages.keys().chain(b.pages.keys()).copied().collect();
        bases.sort_unstable();
        bases.dedup();
        let mut out = Vec::new();
        for base in bases {
            for addr in base..base + PAGE_SIZE {
                if a.read_byte(addr).unwrap_or(0) != b.read_byte(addr).unwrap_or(0) {
                    out.push(addr);
                    if out.len() >= limit {
                        return out;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn diff_equals_the_bytewise_reference() {
        use proptest_mini::{check, pair, prop_assert_eq, triple, u64_range, vec_of, Config};

        // One operation: (kind, page slot, value). Kind 0 maps a zero
        // page, 1-2 write `value` at an offset derived from it; the
        // common half runs on both sides, the rest on one side each.
        let op = triple(u64_range(0, 3), u64_range(0, 5), u64_range(0, 1 << 20));
        let ops = pair(
            vec_of(op.clone(), 0, 6),
            vec_of(pair(u64_range(0, 2), op), 0, 10),
        );
        let apply = |m: &mut Memory, &(kind, slot, value): &(u64, u64, u64)| {
            let base = 0x1000_0000 + slot * PAGE_SIZE;
            match kind {
                0 => m.map_zeroed(base, PAGE_SIZE),
                _ => m.write_byte(base + (value >> 8) % PAGE_SIZE, value as u8),
            }
        };
        check(
            "diff_equals_the_bytewise_reference",
            &Config::with_cases(256),
            &ops,
            |(common, edits)| {
                let mut a = Memory::new();
                for o in common {
                    apply(&mut a, o);
                }
                let mut b = a.clone();
                for (side, o) in edits {
                    apply(if *side == 0 { &mut a } else { &mut b }, o);
                }
                let all = diff_bytewise(&a, &b, usize::MAX);
                prop_assert_eq!(a.diff(&b, usize::MAX), all.clone());
                for limit in 1..=all.len() + 1 {
                    prop_assert_eq!(a.diff(&b, limit), diff_bytewise(&a, &b, limit));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn overlay_copies_pages() {
        let mut a = Memory::new();
        a.write(0x400, 7, Width::W8);
        let mut b = Memory::new();
        b.overlay_from(&a);
        assert_eq!(b.read(0x400, Width::W8), 7);
        a.write(0x400, 9, Width::W8);
        assert_eq!(b.read(0x400, Width::W8), 7, "overlay must deep-copy");
    }

    #[test]
    fn write_bytes_and_read_bytes() {
        let mut m = Memory::new();
        m.write_bytes(0x500, &[1, 2, 3]);
        assert_eq!(m.read_bytes(0x500, 4), vec![1, 2, 3, 0]);
    }
}
