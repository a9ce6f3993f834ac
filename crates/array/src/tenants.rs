//! Response histograms for the tenants one array served.
//!
//! A fleet shards one volume into many tenants and places a few of them on
//! each array, so an array keeps a histogram only for the tenants it
//! actually served. Each histogram is appended once, on the tenant's first
//! completion, beside an index of `(tenant, slot)` pairs sorted by tenant:
//! a newcomer shifts 8-byte index entries, never histograms.

use simkit::LatencyHistogram;

/// Per-tenant response histograms, one per tenant served.
#[derive(Debug, Default)]
pub(crate) struct TenantBook {
    /// `(tenant, slot in hists)`, sorted by tenant.
    index: Vec<(u32, u32)>,
    /// `(tenant, histogram)` in first-completion order.
    hists: Vec<(u32, LatencyHistogram)>,
}

impl TenantBook {
    /// Books one response of `resp_s` seconds to `tenant`.
    #[inline]
    pub(crate) fn record(&mut self, tenant: u32, resp_s: f64) {
        let slot = match self.index.binary_search_by_key(&tenant, |&(t, _)| t) {
            Ok(i) => self.index[i].1,
            Err(i) => {
                let slot = self.hists.len() as u32;
                self.hists.push((tenant, LatencyHistogram::new_latency()));
                self.index.insert(i, (tenant, slot));
                slot
            }
        };
        self.hists[slot as usize].1.record(resp_s);
    }

    /// The histograms, sorted by tenant id.
    pub(crate) fn into_sorted(self) -> Vec<(u32, LatencyHistogram)> {
        let mut hists = self.hists;
        hists.sort_unstable_by_key(|&(t, _)| t);
        hists
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_a_dense_table_over_many_tenants() {
        let mut rng = simkit::DetRng::new(5, "tenant-book");
        let mut book = TenantBook::default();
        let mut dense = vec![LatencyHistogram::new_latency(); 4096];
        // Fewer responses than tenants: about half the ids go unserved.
        for _ in 0..3_000 {
            let t = rng.below(4096) as u32;
            let r = rng.uniform01();
            book.record(t, r);
            dense[t as usize].record(r);
        }
        let sparse = book.into_sorted();
        let want: Vec<(u32, u64, Option<f64>, Option<f64>)> = dense
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.is_empty())
            .map(|(t, h)| (t as u32, h.count(), h.quantile(0.5), h.observed_max()))
            .collect();
        let got: Vec<(u32, u64, Option<f64>, Option<f64>)> = sparse
            .iter()
            .map(|(t, h)| (*t, h.count(), h.quantile(0.5), h.observed_max()))
            .collect();
        assert_eq!(got, want);
    }
}
