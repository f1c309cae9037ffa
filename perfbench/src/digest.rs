//! The FNV-1a fold behind every run digest.

/// FNV-1a over little-endian `u64`s (the fold `sharded_world_digest` uses).
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn fold(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_depends_on_order() {
        let (mut a, mut b) = (Fnv::new(), Fnv::new());
        a.fold(1);
        a.fold(2);
        b.fold(2);
        b.fold(1);
        assert_ne!(a.finish(), b.finish());
    }
}
