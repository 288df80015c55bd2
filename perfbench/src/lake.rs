//! The on-disk lake the `build` phase ingests: one fastText-style `.vec`
//! model plus one CSV file and one `.tags` sidecar per table, all a pure
//! function of the seed. Tag pools grow with the table count, so the
//! search has work in proportion to the lake.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use crate::stats::Rng;

/// Shape of the generated lake.
#[derive(Clone, Copy, Debug)]
pub struct LakeSpec {
    pub tables: usize,
    pub cols: usize,
    pub rows: usize,
    pub dim: usize,
}

/// Where the lake was written.
pub struct LakeFiles {
    pub dir: PathBuf,
    pub vec_path: PathBuf,
    /// Bytes of CSV and `.tags` input (the ingest volume).
    pub csv_bytes: u64,
}

const WORDS_PER_TOPIC: usize = 40;
const GROUPS: usize = 2;

/// Write the lake under `root`.
pub fn write_lake(root: &Path, spec: LakeSpec, seed: u64) -> std::io::Result<LakeFiles> {
    let dir = root.join("lake");
    std::fs::create_dir_all(&dir)?;
    let mut rng = Rng::new(seed);
    let topics = (spec.tables * spec.cols / 12).clamp(8, 256) / GROUPS * GROUPS;

    // Word vectors jittered around per-topic centres, and topic centres
    // around two group centres, so embedded columns carry the topical
    // structure clustering and sharding look for.
    let groups: Vec<f32> = (0..GROUPS * spec.dim).map(|_| rng.signed()).collect();
    let centres: Vec<f32> = (0..topics * spec.dim)
        .map(|i| groups[(i / spec.dim) % GROUPS * spec.dim + i % spec.dim] + 0.5 * rng.signed())
        .collect();
    let mut vec_text = format!("{} {}\n", topics * WORDS_PER_TOPIC, spec.dim);
    for t in 0..topics {
        for w in 0..WORDS_PER_TOPIC {
            let _ = write!(vec_text, "t{t}w{w}");
            for d in 0..spec.dim {
                let v = centres[t * spec.dim + d] + 0.25 * rng.signed();
                let _ = write!(vec_text, " {v}");
            }
            vec_text.push('\n');
        }
    }
    let vec_path = root.join("model.vec");
    std::fs::write(&vec_path, vec_text)?;

    // Three tag families per table, each label belonging to one topic
    // group; pool sizes scale with the table count (≈ tables / 5 labels
    // in all). `domain` follows the table's primary topic, `series` and
    // `theme` are drawn from the group's share of their pools.
    let domains = (spec.tables / 30).max(GROUPS);
    let themes = (spec.tables / 12 / GROUPS).max(1);
    let series = (spec.tables / 12 / GROUPS).max(1);
    let mut csv_bytes = 0u64;
    let mut csv = String::new();
    // Every topic is the primary topic of the same number of tables, in a
    // seeded order: the lake's shape is fixed and only its content varies.
    let mut primaries: Vec<usize> = (0..spec.tables).map(|ti| ti % topics).collect();
    for i in (1..primaries.len()).rev() {
        primaries.swap(i, rng.below(i + 1));
    }
    for (ti, &primary) in primaries.iter().enumerate() {
        let col_topics: Vec<usize> = (0..spec.cols)
            .map(|_| (primary + GROUPS * rng.below(3)) % topics)
            .collect();
        csv.clear();
        for c in 0..spec.cols {
            if c > 0 {
                csv.push(',');
            }
            let _ = write!(csv, "field_{c}");
        }
        csv.push('\n');
        for _ in 0..spec.rows {
            for (c, &t) in col_topics.iter().enumerate() {
                if c > 0 {
                    csv.push(',');
                }
                let _ = write!(csv, "t{t}w{}", rng.below(WORDS_PER_TOPIC));
            }
            csv.push('\n');
        }
        let group = primary % GROUPS;
        let tags = format!(
            "domain{}\ntheme{}\nseries{}\n",
            primary % domains,
            rng.below(themes) * GROUPS + group,
            rng.below(series) * GROUPS + group
        );
        csv_bytes += (csv.len() + tags.len()) as u64;
        std::fs::write(dir.join(format!("table_{ti:05}.csv")), &csv)?;
        std::fs::write(dir.join(format!("table_{ti:05}.tags")), tags)?;
    }
    Ok(LakeFiles {
        dir,
        vec_path,
        csv_bytes,
    })
}
