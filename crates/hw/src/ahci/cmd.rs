//! The byte layout of an AHCI command, as it lies in memory behind the
//! doorbell: a 32-byte command header in the command list names a
//! command table, which holds a 64-byte host-to-device register FIS
//! and, at [`PRDT_OFFSET`], 16-byte physical-region descriptors.
//!
//! Pure functions over fixed-size arrays. Whoever parses a command —
//! the platform controller by DMA, the VMM out of guest memory, the
//! monolithic baseline out of host RAM — does its own reads and
//! applies its own policy to what comes back; whoever builds one (the
//! disk server, test fixtures) writes the encoded bytes.

/// Size of a command header; slot `n` is at `CLB + n * HEADER_LEN`.
pub const HEADER_LEN: usize = 32;
/// Size of the command FIS at the start of a command table.
pub const CFIS_LEN: usize = 64;
/// Size of one physical-region descriptor.
pub const PRD_LEN: usize = 16;
/// Offset of the first descriptor within a command table.
pub const PRDT_OFFSET: u64 = 0x80;

/// FIS type: register, host to device.
const FIS_H2D: u8 = 0x27;
/// ATA READ DMA EXT.
const ATA_READ_DMA_EXT: u8 = 0x25;
/// ATA WRITE DMA EXT.
const ATA_WRITE_DMA_EXT: u8 = 0x35;

/// A command header: the fields the models use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Number of descriptors in the command table (PRDTL).
    pub prdtl: u16,
    /// Command-table base, all 64 bits (CTBA | CTBAU << 32).
    pub ctba: u64,
}

impl Header {
    /// Reads a header.
    #[inline]
    pub fn decode(b: &[u8; HEADER_LEN]) -> Header {
        Header {
            prdtl: u16::from_le_bytes([b[2], b[3]]),
            ctba: u64::from_le_bytes([b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]]),
        }
    }

    /// The header's bytes (flags, PRDBC and the reserved words zero).
    #[inline]
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut b = [0; HEADER_LEN];
        [b[2], b[3]] = self.prdtl.to_le_bytes();
        [b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]] = self.ctba.to_le_bytes();
        b
    }
}

/// A command FIS that is not a host-to-device register FIS carrying
/// READ DMA EXT or WRITE DMA EXT.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BadFis;

/// A 48-bit DMA transfer command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cfis {
    /// WRITE DMA EXT (`true`) or READ DMA EXT.
    pub write: bool,
    /// Starting sector: all six LBA bytes of the 48-bit command
    /// (dropping bytes 9 and 10 would wrap requests beyond 2 TB back
    /// into the low disk).
    pub lba: u64,
    /// Sector count.
    pub sectors: u16,
}

impl Cfis {
    /// Reads a command FIS.
    #[inline]
    pub fn decode(b: &[u8; CFIS_LEN]) -> Result<Cfis, BadFis> {
        if b[0] != FIS_H2D {
            return Err(BadFis);
        }
        let write = match b[2] {
            ATA_READ_DMA_EXT => false,
            ATA_WRITE_DMA_EXT => true,
            _ => return Err(BadFis),
        };
        Ok(Cfis {
            write,
            lba: u64::from_le_bytes([b[4], b[5], b[6], b[8], b[9], b[10], 0, 0]),
            sectors: u16::from_le_bytes([b[12], b[13]]),
        })
    }

    /// The FIS's bytes; `lba` is truncated to 48 bits.
    #[inline]
    pub fn encode(&self) -> [u8; CFIS_LEN] {
        let mut b = [0; CFIS_LEN];
        b[0] = FIS_H2D;
        b[2] = if self.write {
            ATA_WRITE_DMA_EXT
        } else {
            ATA_READ_DMA_EXT
        };
        [b[4], b[5], b[6], b[8], b[9], b[10], _, _] = self.lba.to_le_bytes();
        [b[12], b[13]] = self.sectors.to_le_bytes();
        b
    }
}

/// Physical-region descriptors: a data base address and a byte count,
/// stored as count − 1 in 22 bits.
pub mod prd {
    use super::PRD_LEN;

    /// Reads a descriptor: `(dba, bytes)`, `bytes` in 1..=4 MB.
    #[inline]
    pub fn decode(b: &[u8; PRD_LEN]) -> (u64, u32) {
        let dba = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        let dbc = u32::from_le_bytes([b[12], b[13], b[14], b[15]]) & 0x3f_ffff;
        (dba, dbc + 1)
    }

    /// The descriptor for `bytes` (≥ 1) at `dba`.
    #[inline]
    pub fn encode(dba: u64, bytes: u32) -> [u8; PRD_LEN] {
        let mut b = [0; PRD_LEN];
        [b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]] = dba.to_le_bytes();
        [b[12], b[13], b[14], b[15]] = bytes.wrapping_sub(1).to_le_bytes();
        b
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)]
mod tests {
    use super::*;

    #[test]
    fn header_keeps_both_halves_of_the_table_base() {
        let h = Header {
            prdtl: 3,
            ctba: 0x1_0020_1000,
        };
        let b = h.encode();
        assert_eq!(b[..4], [0, 0, 3, 0]);
        assert_eq!(b[8..16], [0, 0x10, 0x20, 0, 1, 0, 0, 0]);
        assert_eq!(Header::decode(&b), h);
    }

    #[test]
    fn cfis_round_trips_all_six_lba_bytes() {
        let c = Cfis {
            write: true,
            lba: 0xa1b2_c3d4_e5f6,
            sectors: 0x0108,
        };
        let b = c.encode();
        assert_eq!(b[..4], [0x27, 0, 0x35, 0]);
        assert_eq!(b[4..12], [0xf6, 0xe5, 0xd4, 0, 0xc3, 0xb2, 0xa1, 0]);
        assert_eq!(b[12..14], [0x08, 0x01]);
        assert!(b[14..].iter().all(|&x| x == 0));
        assert_eq!(Cfis::decode(&b), Ok(c));
    }

    #[test]
    fn cfis_rejects_other_fis_types_and_commands() {
        let mut b = Cfis {
            write: false,
            lba: 0,
            sectors: 1,
        }
        .encode();
        assert_eq!(b[2], 0x25);
        b[2] = 0xec; // IDENTIFY DEVICE
        assert_eq!(Cfis::decode(&b), Err(BadFis));
        b[2] = 0x25;
        b[0] = 0x34; // device-to-host
        assert_eq!(Cfis::decode(&b), Err(BadFis));
    }

    #[test]
    fn prd_stores_the_count_less_one_in_22_bits() {
        let b = prd::encode(0x2_0030_0003, 4096);
        assert_eq!(b[12..], [0xff, 0x0f, 0, 0]);
        assert!(b[8..12].iter().all(|&x| x == 0));
        assert_eq!(prd::decode(&b), (0x2_0030_0003, 4096));
        let mut b = prd::encode(0, 1);
        b[15] = 0x80; // interrupt-on-completion flag: not part of the count
        assert_eq!(prd::decode(&b), (0, 1));
    }
}
