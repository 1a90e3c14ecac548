//! Golden digests: the output bits and the full counter ledger of every
//! dimension x Fig. 6 variant x boundary condition at small shapes, plus
//! one chunked, checkpointed and resumed 1D runtime job. A second table
//! pins instrumented runs (tracing, sanitizer and fault injection all on,
//! plus one verified run that retries): their output bits, ledger and
//! fault counts, per-phase trace and sanitizer report.
//!
//! The table pins results bit for bit, so a refactor of the pipeline can
//! be checked without keeping a second implementation alive. Each entry
//! holds two CRC-64s: one over the padded output grid (`f64::to_bits`,
//! little-endian, halo included) and one over the ledger rendered as
//! `name=value;` pairs (`Counters::field_pairs`, then `LaunchStats`).
//! Only an intended change of outputs or ledgers may regenerate it; a
//! failure prints the whole current table.

use std::fmt::Write as _;
use std::path::PathBuf;

use convstencil_repro::convstencil::{
    ConvStencil, ConvStencil1D, ConvStencil2D, ConvStencil3D, RunReport, Stencil, VariantConfig,
    VerifyConfig,
};
use convstencil_repro::runtime::{crc64, Job, JobPayload, Runtime, RuntimeConfig};
use convstencil_repro::stencil_core::{Boundary, Grid1D, Grid2D, Grid3D, HaloGrid, Shape};
use convstencil_repro::tcu_sim::{Counters, FaultPlan, LaunchStats};

/// `(case, crc64 of the output bits, crc64 of the ledger)`, one line each.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64)] = &[
    ("1d/I/dirichlet", 0xf74268c41761868a, 0xbd3e6c55c94726a3),
    ("2d/I/dirichlet", 0x1656f5523d50db8c, 0xe26583a30c484040),
    ("3d-heat-3d/I/dirichlet", 0x8e9a63169169151f, 0xcba2a8278bf63795),
    ("3d-box-3d27p/I/dirichlet", 0x91a9e30e3c710e93, 0x0b11768ccd0b6e4d),
    ("1d/I/periodic", 0xb0a599e1c2f9a90b, 0xc8c447201b7500e7),
    ("2d/I/periodic", 0xa5ac97e2b6443b4d, 0x1a2509cac23a1aef),
    ("3d-heat-3d/I/periodic", 0x8c031f25eeba0c30, 0x96311991c78724d0),
    ("3d-box-3d27p/I/periodic", 0xa40eb12072684a3b, 0x69b6fd850a26b7b6),
    ("1d/II/dirichlet", 0xf74268c41761868a, 0xa49eb9fa678d6252),
    ("2d/II/dirichlet", 0x1656f5523d50db8c, 0x416a8f10c2846bb7),
    ("3d-heat-3d/II/dirichlet", 0x8e9a63169169151f, 0xdf28aa3e8a9f8dad),
    ("3d-box-3d27p/II/dirichlet", 0x91a9e30e3c710e93, 0x8cdc47d98b1df2a2),
    ("1d/II/periodic", 0xb0a599e1c2f9a90b, 0xdd733792ba6ad552),
    ("2d/II/periodic", 0xa5ac97e2b6443b4d, 0x3049c1526ed60092),
    ("3d-heat-3d/II/periodic", 0x8c031f25eeba0c30, 0xe554af9db0fba12e),
    ("3d-box-3d27p/II/periodic", 0xa40eb12072684a3b, 0x9801768dda10765b),
    ("1d/III/dirichlet", 0x6265d6cdf3ce0cbf, 0x725a3e764b0a53b2),
    ("2d/III/dirichlet", 0x6055e51b505850c3, 0x5d9d185edaca614e),
    ("3d-heat-3d/III/dirichlet", 0x3d546ecac7eb6ad9, 0xd717b25f493c2bea),
    ("3d-box-3d27p/III/dirichlet", 0xc0ed1ba5a261c84f, 0xedb7b928fa9277ce),
    ("1d/III/periodic", 0xfb9612824733944a, 0x50075b5a23446bc8),
    ("2d/III/periodic", 0x18fe1ac1b922f923, 0x650ce16c90f29cdf),
    ("3d-heat-3d/III/periodic", 0xacfdf2c00112dc54, 0x3aa0c816cc0fe6ad),
    ("3d-box-3d27p/III/periodic", 0x733b131ecec5ad59, 0xaa07b7183d5982d9),
    ("1d/IV/dirichlet", 0x6265d6cdf3ce0cbf, 0xf3ee04f76a03373a),
    ("2d/IV/dirichlet", 0x6055e51b505850c3, 0x13cff68231c8e105),
    ("3d-heat-3d/IV/dirichlet", 0x3d546ecac7eb6ad9, 0x0ddd360c874c71ec),
    ("3d-box-3d27p/IV/dirichlet", 0xc0ed1ba5a261c84f, 0xc2b767eb59f25f2e),
    ("1d/IV/periodic", 0xfb9612824733944a, 0xd1b361db024d0f40),
    ("2d/IV/periodic", 0x18fe1ac1b922f923, 0x82473d9a341ea7ea),
    ("3d-heat-3d/IV/periodic", 0xacfdf2c00112dc54, 0xb52ef741c80e689f),
    ("3d-box-3d27p/IV/periodic", 0x733b131ecec5ad59, 0x5d4a021671f099fe),
    ("1d/V/dirichlet", 0x6265d6cdf3ce0cbf, 0x49dc8ed195b1820a),
    ("2d/V/dirichlet", 0x6055e51b505850c3, 0xcee9b226dab15c38),
    ("3d-heat-3d/V/dirichlet", 0x3d546ecac7eb6ad9, 0xca9e57e0afda0e35),
    ("3d-box-3d27p/V/dirichlet", 0xc0ed1ba5a261c84f, 0x3371ebd43bb149b6),
    ("1d/V/periodic", 0xfb9612824733944a, 0xb2d19416546f5af0),
    ("2d/V/periodic", 0x18fe1ac1b922f923, 0x5599bc627da440b1),
    ("3d-heat-3d/V/periodic", 0xacfdf2c00112dc54, 0x1904c89ecce4d97e),
    ("3d-box-3d27p/V/periodic", 0x733b131ecec5ad59, 0xad7ad98c0ebf72da),
    ("ref-1d/I/dirichlet/base-halo", 0x32ae966905d590dd, 0x0000000000000000),
    ("ref-2d/I/dirichlet/base-halo", 0x450ddcf7415b7f8d, 0x0000000000000000),
    ("ref-1d/I/dirichlet/fused-halo", 0xa59bcd68401ec85a, 0x0000000000000000),
    ("ref-2d/I/dirichlet/fused-halo", 0x6172ca676e2b295b, 0x0000000000000000),
    ("ref-3d/I/dirichlet", 0xf2c0a0c9c632254e, 0x0000000000000000),
    ("ref-1d/I/periodic/base-halo", 0x120a0138aa6ab4cb, 0x0000000000000000),
    ("ref-2d/I/periodic/base-halo", 0x195b4f663cccaf04, 0x0000000000000000),
    ("ref-1d/I/periodic/fused-halo", 0x7e723a77cd096271, 0x0000000000000000),
    ("ref-2d/I/periodic/fused-halo", 0x986d27fc38eeed46, 0x0000000000000000),
    ("ref-3d/I/periodic", 0x1ee8d6f020298ac1, 0x0000000000000000),
    ("ref-1d/V/dirichlet/base-halo", 0x490c828a01c3fd2a, 0x0000000000000000),
    ("ref-2d/V/dirichlet/base-halo", 0xfdba5834997e9ade, 0x0000000000000000),
    ("ref-1d/V/dirichlet/fused-halo", 0x45dd6a795aa55d73, 0x0000000000000000),
    ("ref-2d/V/dirichlet/fused-halo", 0xdcc45aa9480b63f2, 0x0000000000000000),
    ("ref-3d/V/dirichlet", 0xf2c0a0c9c632254e, 0x0000000000000000),
    ("ref-1d/V/periodic/base-halo", 0x120a0138aa6ab4cb, 0x0000000000000000),
    ("ref-2d/V/periodic/base-halo", 0x195b4f663cccaf04, 0x0000000000000000),
    ("ref-1d/V/periodic/fused-halo", 0x7e723a77cd096271, 0x0000000000000000),
    ("ref-2d/V/periodic/fused-halo", 0x986d27fc38eeed46, 0x0000000000000000),
    ("ref-3d/V/periodic", 0x1ee8d6f020298ac1, 0x0000000000000000),
    ("job-1d/resumed", 0x9b53cf24aebf3f4c, 0x9011b76a45ddefb0),
    ("2d-box-2d25p/I/dirichlet", 0x9a01dbeab1c2f012, 0xdd36ddff444b6324),
    ("2d-box-2d25p/I/periodic", 0x0704d0a05c23874f, 0xb64fb49350012c9d),
    ("2d-box-2d25p/II/dirichlet", 0x9a01dbeab1c2f012, 0x37525ffffa26eadb),
    ("2d-box-2d25p/II/periodic", 0x0704d0a05c23874f, 0x65cbf5934bf884c0),
    ("2d-box-2d25p/III/dirichlet", 0x4eb4ce918d7df7b1, 0x301fdec76075509f),
    ("2d-box-2d25p/III/periodic", 0x65e5154f36831a75, 0x8937b291e6ec57bc),
    ("2d-box-2d25p/IV/dirichlet", 0x4eb4ce918d7df7b1, 0x301fdec76075509f),
    ("2d-box-2d25p/IV/periodic", 0x65e5154f36831a75, 0x8937b291e6ec57bc),
    ("2d-box-2d25p/V/dirichlet", 0x4eb4ce918d7df7b1, 0xf6cd8342776f5d77),
    ("2d-box-2d25p/V/periodic", 0x65e5154f36831a75, 0xa7827fe96d7090f5),
    ("3d-box-r2/I/dirichlet", 0x641a9b18daccf8e9, 0x86567ab12622cb44),
    ("3d-heat-3d-x2/I/dirichlet", 0xf9396ab50bff4faf, 0x9334eef6d8c46445),
    ("3d-box-r2/I/periodic", 0x010b081c5cc1a70e, 0xc379b3f6154955f9),
    ("3d-heat-3d-x2/I/periodic", 0xb096359b27917815, 0xa1774184e079946e),
    ("3d-box-r2/II/dirichlet", 0x641a9b18daccf8e9, 0xb6e59657ffc0d2d9),
    ("3d-heat-3d-x2/II/dirichlet", 0xf9396ab50bff4faf, 0x86cd3f3ce8bfec0a),
    ("3d-box-r2/II/periodic", 0x010b081c5cc1a70e, 0x77ac5a14b733af51),
    ("3d-heat-3d-x2/II/periodic", 0xb096359b27917815, 0xf5167e4de0c24354),
    ("3d-box-r2/III/dirichlet", 0xe51f446124e268d4, 0xfe0d447be2016fc7),
    ("3d-heat-3d-x2/III/dirichlet", 0x5789f9860ba3980b, 0x4e54ee418272413c),
    ("3d-box-r2/III/periodic", 0x18d41e0989ae0a8d, 0x1e5a9fde15fdaf73),
    ("3d-heat-3d-x2/III/periodic", 0x72f4e024f52227fc, 0x45b701623b671d30),
    ("3d-box-r2/IV/dirichlet", 0xe51f446124e268d4, 0xfe0d447be2016fc7),
    ("3d-heat-3d-x2/IV/dirichlet", 0x5789f9860ba3980b, 0x4e54ee418272413c),
    ("3d-box-r2/IV/periodic", 0x18d41e0989ae0a8d, 0x1e5a9fde15fdaf73),
    ("3d-heat-3d-x2/IV/periodic", 0x72f4e024f52227fc, 0x45b701623b671d30),
    ("3d-box-r2/V/dirichlet", 0xe51f446124e268d4, 0x0b7b7b9853cdd259),
    ("3d-heat-3d-x2/V/dirichlet", 0x5789f9860ba3980b, 0xc3f1e7de82dfe5ae),
    ("3d-box-r2/V/periodic", 0x18d41e0989ae0a8d, 0xd3cc23f1377dd7e7),
    ("3d-heat-3d-x2/V/periodic", 0x72f4e024f52227fc, 0xed15ff4e3f80a85d),
    ("1d-1d5p/I/dirichlet", 0xe83d0ef8dff557d7, 0x7c16da535ba088ce),
    ("1d-1d5p/I/periodic", 0x4cd493510e49445a, 0x91ed21ee5af7d4e3),
    ("1d-1d5p/II/dirichlet", 0xe83d0ef8dff557d7, 0xb52adb60af281360),
    ("1d-1d5p/II/periodic", 0x4cd493510e49445a, 0xfe0cab8f123c55e8),
    ("1d-1d5p/III/dirichlet", 0xe83d0ef8dff557d7, 0x835984a42c637c8b),
    ("1d-1d5p/III/periodic", 0x4cd493510e49445a, 0x42757c8a4aac0593),
    ("1d-1d5p/IV/dirichlet", 0xe83d0ef8dff557d7, 0xbfbf8e9577383a04),
    ("1d-1d5p/IV/periodic", 0x4cd493510e49445a, 0x7e9376bb11f7431c),
    ("1d-1d5p/V/dirichlet", 0xe83d0ef8dff557d7, 0x232ee6834ce7601e),
    ("1d-1d5p/V/periodic", 0x4cd493510e49445a, 0xe2021ead2a281906),
    ("2d-wide/I/dirichlet", 0x7bc5d41ef7380323, 0x28934021bf7e2a9f),
    ("3d-wide/I/dirichlet", 0x29e453f79de9b5ed, 0x93fffcfd6c1acfd5),
    ("2d-wide/II/dirichlet", 0x7bc5d41ef7380323, 0xe67deb3cb8a953e9),
    ("3d-wide/II/dirichlet", 0x29e453f79de9b5ed, 0xf80a77c22bec7e46),
    ("2d-wide/III/dirichlet", 0x817c856cbee8e9ad, 0x6d6fb82f972dc330),
    ("3d-wide/III/dirichlet", 0x65243d80760b0d24, 0x824eba52d48887bb),
    ("2d-wide/IV/dirichlet", 0x817c856cbee8e9ad, 0x5b8ba40a1298e738),
    ("3d-wide/IV/dirichlet", 0x65243d80760b0d24, 0x9d3fcdff379e52a6),
    ("2d-wide/V/dirichlet", 0x817c856cbee8e9ad, 0xfb7d86832dc39ec3),
    ("3d-wide/V/dirichlet", 0x65243d80760b0d24, 0x7e4f7795c949505f),
];

/// `(case, crc64 of the output bits, of the ledger plus the report's
/// fault and retry counts, of the JSONL trace with every `wall_ns` zeroed,
/// of the sanitizer report's `Debug` rendering or 0 without one)`.
#[rustfmt::skip]
const INSTRUMENTED: &[(&str, u64, u64, u64, u64)] = &[
    ("1d/I", 0xbd1d3da15c57876a, 0xe1c75cb181364a44, 0x800e1dc6e5cfb6b1, 0xd6763914f5507747),
    ("2d/I", 0x96104afb068496ed, 0x36736f5942faa8a6, 0xa677f406d439cb71, 0xd617547e5dd8bbd2),
    ("3d/I", 0x0c8a52f399586f0e, 0x4447b042b1d8cf52, 0x5501dafe201ba61c, 0x41c5a35f8c3f500e),
    ("1d/II", 0xc78d0b321c2b1972, 0x0215f9c7e1d5ce46, 0xac955e54d18f8e75, 0xd6c49dad5d270123),
    ("2d/II", 0xa15f27645db5693c, 0x6e53dc9213a20bb9, 0xe1c8fdec7c6fb07f, 0x64440b0c4d197445),
    ("3d/II", 0xd24d558ed7a92f87, 0x9caf054f3d54e6d6, 0x97295f9b0b8eeedf, 0x98b24b2c11cb7793),
    ("1d/III", 0x6b391d6440811559, 0x53f1d3d0e7c062cd, 0x071a4dbbc541c078, 0x9a1e1677295bba28),
    ("2d/III", 0xe7707a526de037e8, 0xc9ac6e25d17b7c5b, 0x610555bd6b44a2de, 0x9bad2aae835f553c),
    ("3d/III", 0x99ed2b3959cb618d, 0x61791910940e5bab, 0xea3c217bb7eb5b62, 0x5131e57fd57e783b),
    ("1d/IV", 0x6b391d6440811559, 0x762fbdd08bd040e2, 0x1d3dad2895642a29, 0xabb8c17eeaf8a406),
    ("2d/IV", 0xe7707a526de037e8, 0x5405322b40b9683d, 0x5e28f30bb6450e2d, 0x3c8a34654787acbe),
    ("3d/IV", 0x30ec8ea1fb08c214, 0xc5494c9e9c69bf08, 0xfd97ad44420c63cd, 0xafd8061b2d9c7cfd),
    ("1d/V", 0x5d70ab52e23cc67f, 0x40b7afa2f9e0793e, 0x56221ab1aeedcde1, 0x8a1d1a95b0b89e5d),
    ("2d/V", 0x1a0b62bc961fa92f, 0xe732367e71369cef, 0xc6fa2ea0d46241a5, 0x4db6d7289b0da3ea),
    ("3d/V", 0xac7ef547aa1cab89, 0x5948b26e3dcc8270, 0x9e50fa7ce0acddc1, 0x8eec7e75a3105b4a),
    ("2d-heat-2d/verified", 0x6510ec540e53119b, 0xbae9a19ba630a393, 0x85747f5cf12065b2, 0x0000000000000000),
    ("1d5p/I", 0x67e1aa9a736d318f, 0x0a79df9db943265a, 0xe0ced4e07413d702, 0xa59853a35e1097b6),
    ("1d5p/II", 0x4eceadfe0f2cbdee, 0xdb30f04384b81f5d, 0x1e32771473c2a22f, 0xe3259b4540c464c3),
    ("1d5p/III", 0xb3c8aa4f10ed074b, 0xf7d7dc9f9c685c70, 0xfb9cfc536c6510d0, 0x7651c90c95dc8449),
    ("1d5p/IV", 0xfc68c521cdbbf1de, 0x39fa7ad87bb05441, 0xdbb7180140da4df0, 0x0bfb42535e60d220),
    ("1d5p/V", 0x42f88ba7ba86d6bc, 0x6f61cddbb933db6f, 0xd1b8d7e80f34ce76, 0x9023179c3a4d71af),
];

fn digest(padded: &[f64], counters: &Counters, launch: &LaunchStats) -> (u64, u64) {
    let bits: Vec<u8> = padded
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    let ledger = ledger_text(counters, launch);
    (crc64(&bits), crc64(ledger.as_bytes()))
}

fn ledger_text(counters: &Counters, launch: &LaunchStats) -> String {
    let mut ledger = String::new();
    for (name, value) in counters.field_pairs() {
        write!(ledger, "{name}={value};").unwrap();
    }
    write!(
        ledger,
        "kernel_launches={};total_blocks={}",
        launch.kernel_launches, launch.total_blocks
    )
    .unwrap();
    ledger
}

fn boundaries() -> [(&'static str, Boundary); 2] {
    [
        ("dirichlet", Boundary::Dirichlet),
        ("periodic", Boundary::Periodic),
    ]
}

/// Short variant tag: the Roman numeral of the Fig. 6 breakdown label.
fn tag(label: &str) -> &str {
    label.split(':').next().unwrap()
}

/// One-shot runs. Dirichlet grids carry the base kernel's halo, thinner
/// than the fused radius, so the re-halo step runs; periodic grids carry
/// the fused radius.
fn one_shot_digests() -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    for (label, variant) in VariantConfig::breakdown() {
        for (bname, boundary) in boundaries() {
            let kernel = Shape::Heat1D.kernel1d().unwrap();
            let cs = ConvStencil1D::try_new(kernel.clone())
                .unwrap()
                .with_variant(variant)
                .with_boundary(boundary);
            let halo = match boundary {
                Boundary::Dirichlet => kernel.radius(),
                Boundary::Periodic => cs.fused_kernel().radius(),
            };
            let mut grid = Grid1D::new(3000, halo);
            grid.fill_random(11);
            let (got, r) = cs.try_run(&grid, 4).unwrap();
            let (a, b) = digest(got.padded(), &r.counters, &r.launch_stats);
            out.push((format!("1d/{}/{bname}", tag(label)), a, b));

            let kernel = Shape::Box2D9P.kernel2d().unwrap();
            let cs = ConvStencil2D::try_new(kernel.clone())
                .unwrap()
                .with_variant(variant)
                .with_boundary(boundary);
            let halo = match boundary {
                Boundary::Dirichlet => kernel.radius(),
                Boundary::Periodic => cs.fused_kernel().radius(),
            };
            let mut grid = Grid2D::new(40, 72, halo);
            grid.fill_random(12);
            let (got, r) = cs.try_run(&grid, 4).unwrap();
            let (a, b) = digest(got.padded(), &r.counters, &r.launch_stats);
            out.push((format!("2d/{}/{bname}", tag(label)), a, b));

            for shape in [Shape::Heat3D, Shape::Box3D27P] {
                let kernel = shape.kernel3d().unwrap();
                let cs = ConvStencil3D::try_new(kernel.clone())
                    .unwrap()
                    .with_variant(variant)
                    .with_boundary(boundary);
                let mut grid = Grid3D::new(6, 12, 40, kernel.radius());
                grid.fill_random(13);
                let (got, r) = cs.try_run(&grid, 2).unwrap();
                let (a, b) = digest(got.padded(), &r.counters, &r.launch_stats);
                let name = shape.name().to_lowercase();
                out.push((format!("3d-{name}/{}/{bname}", tag(label)), a, b));
            }
        }
    }
    out
}

/// Kernel edge 5 one-shot runs: Box-2D25P unfused, whose 48-column band is
/// where band-wide and 32-lane gathers and writes split differently, then
/// a radius-2 3D box and Heat-3D fused twice on 64 columns (more than one
/// 48-column block).
fn nk5_digests() -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    for (label, variant) in VariantConfig::breakdown() {
        for (bname, boundary) in boundaries() {
            let kernel = Shape::Box2D25P.kernel2d().unwrap();
            let cs = ConvStencil2D::try_new(kernel.clone())
                .unwrap()
                .with_variant(variant)
                .with_boundary(boundary);
            assert_eq!(cs.fused_kernel().nk(), 5, "Box-2D25P must run unfused");
            let mut grid = Grid2D::new(40, 72, kernel.radius());
            grid.fill_random(12);
            let (got, r) = cs.try_run(&grid, 4).unwrap();
            let (a, b) = digest(got.padded(), &r.counters, &r.launch_stats);
            out.push((format!("2d-box-2d25p/{}/{bname}", tag(label)), a, b));
        }
    }
    for (label, variant) in VariantConfig::breakdown() {
        for (bname, boundary) in boundaries() {
            let box_r2 = convstencil_repro::stencil_core::Kernel3D::new(2, vec![1.0 / 125.0; 125]);
            let heat = Shape::Heat3D.kernel3d().unwrap();
            for (name, cs) in [
                ("box-r2", ConvStencil3D::try_new(box_r2).unwrap()),
                (
                    "heat-3d-x2",
                    ConvStencil3D::try_with_fusion(heat, 2).unwrap(),
                ),
            ] {
                let cs = cs.with_variant(variant).with_boundary(boundary);
                let mut grid = Grid3D::new(8, 16, 64, 2);
                grid.fill_random(13);
                let (got, r) = cs.try_run(&grid, 2).unwrap();
                let (a, b) = digest(got.padded(), &r.counters, &r.launch_stats);
                out.push((format!("3d-{name}/{}/{bname}", tag(label)), a, b));
            }
        }
    }
    out
}

/// 1D5P (`n_k = 5`, unfused) on 10,000 cells: a 10,092-column extended
/// array, so variant I's transform runs more than one block, and a
/// 168-group block whose 48-output bands and 32-lane CUDA-core groups
/// split the row differently.
fn oned5p_digests() -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    for (label, variant) in VariantConfig::breakdown() {
        for (bname, boundary) in boundaries() {
            let kernel = Shape::OneD5P.kernel1d().unwrap();
            let cs = ConvStencil1D::try_new(kernel.clone())
                .unwrap()
                .with_variant(variant)
                .with_boundary(boundary);
            assert_eq!(cs.fused_kernel().nk(), 5, "1D5P must run unfused");
            let mut grid = Grid1D::new(10_000, kernel.radius());
            grid.fill_random(15);
            let (got, r) = cs.try_run(&grid, 4).unwrap();
            let (a, b) = digest(got.padded(), &r.counters, &r.launch_stats);
            out.push((format!("1d-1d5p/{}/{bname}", tag(label)), a, b));
        }
    }
    out
}

/// Plane plans where one block's tile covers every extended row (32 rows
/// in 2D, 8 per plane in 3D) and whose extended rows are wider than 4096
/// columns: variant I's staging and transform geometry at its edges.
fn wide_row_digests() -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    for (label, variant) in VariantConfig::breakdown() {
        let kernel = Shape::Box2D9P.kernel2d().unwrap();
        let cs = ConvStencil2D::try_new(kernel.clone())
            .unwrap()
            .with_variant(variant);
        let mut grid = Grid2D::new(32, 4200, kernel.radius());
        grid.fill_random(16);
        let (got, r) = cs.try_run(&grid, 4).unwrap();
        let (a, b) = digest(got.padded(), &r.counters, &r.launch_stats);
        out.push((format!("2d-wide/{}/dirichlet", tag(label)), a, b));

        let kernel = Shape::Box3D27P.kernel3d().unwrap();
        let cs = ConvStencil3D::try_new(kernel.clone())
            .unwrap()
            .with_variant(variant);
        let mut grid = Grid3D::new(2, 8, 4100, kernel.radius());
        grid.fill_random(17);
        let (got, r) = cs.try_run(&grid, 2).unwrap();
        let (a, b) = digest(got.padded(), &r.counters, &r.launch_stats);
        out.push((format!("3d-wide/{}/dirichlet", tag(label)), a, b));
    }
    out
}

/// CPU references of the same problems (the ledger column is zero): the
/// fused decomposition with a thin halo and with one that covers the
/// fused radius, for both the Tensor-Core and the unfused CUDA-core
/// schedules, and the periodic reference.
fn reference_digests() -> Vec<(String, u64, u64)> {
    let mut out = Vec::new();
    let digest_ref =
        |padded: &[f64]| digest(padded, &Counters::default(), &LaunchStats::default()).0;
    for (label, variant) in [VariantConfig::breakdown()[0], VariantConfig::breakdown()[4]] {
        for (bname, boundary) in boundaries() {
            for wide in [false, true] {
                let case = format!(
                    "{}/{bname}/{}",
                    tag(label),
                    if wide { "fused-halo" } else { "base-halo" }
                );
                let kernel = Shape::Heat1D.kernel1d().unwrap();
                let cs = ConvStencil1D::try_new(kernel.clone())
                    .unwrap()
                    .with_variant(variant)
                    .with_boundary(boundary);
                let halo = if wide { cs.fused_kernel() } else { &kernel }.radius();
                let mut grid = Grid1D::new(3000, halo);
                grid.fill_random(21);
                let got = cs.run_reference(&grid, 4);
                out.push((format!("ref-1d/{case}"), digest_ref(got.padded()), 0));

                let kernel = Shape::Box2D9P.kernel2d().unwrap();
                let cs = ConvStencil2D::try_new(kernel.clone())
                    .unwrap()
                    .with_variant(variant)
                    .with_boundary(boundary);
                let halo = if wide { cs.fused_kernel() } else { &kernel }.radius();
                let mut grid = Grid2D::new(40, 72, halo);
                grid.fill_random(22);
                let got = cs.run_reference(&grid, 4);
                out.push((format!("ref-2d/{case}"), digest_ref(got.padded()), 0));
            }
            let kernel = Shape::Heat3D.kernel3d().unwrap();
            let cs = ConvStencil3D::try_new(kernel.clone())
                .unwrap()
                .with_variant(variant)
                .with_boundary(boundary);
            let mut grid = Grid3D::new(6, 12, 40, kernel.radius());
            grid.fill_random(23);
            let got = cs.run_reference(&grid, 2);
            let case = format!("ref-3d/{}/{bname}", tag(label));
            out.push((case, digest_ref(got.padded()), 0));
        }
    }
    out
}

/// Heat-1D through the runtime: chunks of 3 steps, a checkpoint after
/// each, verified against the reference, halted after two checkpoints and
/// resumed from the newest one.
fn resumed_job_digest() -> (String, u64, u64) {
    let dir: PathBuf = std::env::temp_dir().join(format!("cs_golden_job_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let kernel = Shape::Heat1D.kernel1d().unwrap();
    let runner = ConvStencil1D::try_new(kernel.clone()).unwrap();
    let mut grid = Grid1D::new(4096, kernel.radius());
    grid.fill_random(14);
    let config = RuntimeConfig {
        devices: 2,
        checkpoint_every: 3,
        checkpoint_dir: Some(dir.clone()),
        verify: Some(VerifyConfig::default()),
        halt_after_checkpoints: Some(2),
        ..RuntimeConfig::default()
    };
    let mut rt = Runtime::new(config);
    rt.submit(Job {
        name: "golden".to_string(),
        payload: JobPayload::D1 { runner, grid },
        steps: 12,
    })
    .unwrap();
    let first = rt.run_next().unwrap().unwrap();
    assert!(first.halted, "the job must halt at its checkpoint limit");
    let (done, warnings) = rt.resume(Some("golden")).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(warnings.is_empty(), "{warnings:?}");
    assert!(!done.halted);
    assert_eq!(done.report.steps_done, 12);
    let JobPayload::D1 { grid, .. } = &done.payload else {
        panic!("the job came back with a non-1D payload");
    };
    let (a, b) = digest(
        grid.padded(),
        &done.report.counters,
        &done.report.launch_stats,
    );
    ("job-1d/resumed".to_string(), a, b)
}

type InstrumentedRow = (String, u64, u64, u64, u64);

fn instrumented_digest(case: String, padded: &[f64], r: &RunReport) -> InstrumentedRow {
    let (bits, _) = digest(padded, &r.counters, &r.launch_stats);
    let mut ledger = ledger_text(&r.counters, &r.launch_stats);
    write!(
        ledger,
        ";faults_injected={};faults_detected={};retries={}",
        r.faults_injected, r.faults_detected, r.retries
    )
    .unwrap();
    let mut trace = r.trace.clone().expect("tracing is on");
    for span in &mut trace.spans {
        span.wall_ns = 0;
    }
    let sanitizer = r
        .sanitizer
        .as_ref()
        .map_or(0, |s| crc64(format!("{s:?}").as_bytes()));
    let (ledger, trace) = (crc64(ledger.as_bytes()), crc64(trace.to_jsonl().as_bytes()));
    (case, bits, ledger, trace, sanitizer)
}

/// One run with tracing, the sanitizer and shared-memory corruption on.
fn instrumented<K: Stencil>(
    case: String,
    kernel: K,
    grid: &K::Grid,
    variant: VariantConfig,
    steps: usize,
) -> InstrumentedRow {
    let (got, r) = ConvStencil::try_new(kernel)
        .unwrap()
        .with_variant(variant)
        .with_tracing(true)
        .with_sanitizer(true)
        .with_fault_plan(FaultPlan::quiet(0x9001).with_smem_corrupt_rate(0.05))
        .try_run(grid, steps)
        .unwrap();
    instrumented_digest(case, got.padded(), &r)
}

/// Every Fig. 6 variant in 1D, 2D and 3D, then a traced verified Heat-2D
/// run whose injected faults force retries, then every variant of 1D5P on
/// 10,000 cells.
fn instrumented_digests() -> Vec<InstrumentedRow> {
    let mut out = Vec::new();
    for (label, variant) in VariantConfig::breakdown() {
        let tag = tag(label);
        let kernel = Shape::Heat1D.kernel1d().unwrap();
        let mut grid = Grid1D::new(3000, kernel.radius());
        grid.fill_random(17);
        out.push(instrumented(format!("1d/{tag}"), kernel, &grid, variant, 3));

        let kernel = Shape::Box2D9P.kernel2d().unwrap();
        let mut grid = Grid2D::new(40, 72, kernel.radius());
        grid.fill_random(23);
        out.push(instrumented(format!("2d/{tag}"), kernel, &grid, variant, 4));

        let kernel = Shape::Box3D27P.kernel3d().unwrap();
        let mut grid = Grid3D::new(6, 10, 40, kernel.radius());
        grid.fill_random(31);
        out.push(instrumented(format!("3d/{tag}"), kernel, &grid, variant, 3));
    }
    let kernel = Shape::Heat2D.kernel2d().unwrap();
    let mut grid = Grid2D::new(32, 64, kernel.radius());
    grid.fill_random(41);
    let (got, r) = ConvStencil2D::try_new(kernel)
        .unwrap()
        .with_tracing(true)
        .with_fault_plan(FaultPlan::quiet(0x9002).with_smem_corrupt_rate(0.02))
        .try_run_verified(&grid, 3)
        .unwrap();
    assert!(r.retries > 0, "the verified case must exercise a retry");
    out.push(instrumented_digest(
        "2d-heat-2d/verified".to_string(),
        got.padded(),
        &r,
    ));
    for (label, variant) in VariantConfig::breakdown() {
        let kernel = Shape::OneD5P.kernel1d().unwrap();
        let mut grid = Grid1D::new(10_000, kernel.radius());
        grid.fill_random(19);
        let case = format!("1d5p/{}", tag(label));
        out.push(instrumented(case, kernel, &grid, variant, 3));
    }
    out
}

#[test]
fn instrumented_runs_match_the_golden_table() {
    let got = instrumented_digests();
    let table: String = got
        .iter()
        .map(|(name, a, b, c, d)| {
            format!("    ({name:?}, {a:#018x}, {b:#018x}, {c:#018x}, {d:#018x}),\n")
        })
        .collect();
    let want: Vec<InstrumentedRow> = INSTRUMENTED
        .iter()
        .map(|&(name, a, b, c, d)| (name.to_string(), a, b, c, d))
        .collect();
    assert!(
        got == want,
        "instrumented runs differ from the golden table; current table:\n{table}"
    );
}

#[test]
fn outputs_and_ledgers_match_the_golden_table() {
    let mut got = one_shot_digests();
    got.extend(reference_digests());
    got.push(resumed_job_digest());
    got.extend(nk5_digests());
    got.extend(oned5p_digests());
    got.extend(wide_row_digests());
    let table: String = got
        .iter()
        .map(|(name, a, b)| format!("    ({name:?}, {a:#018x}, {b:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64, u64)> = GOLDEN
        .iter()
        .map(|&(name, a, b)| (name.to_string(), a, b))
        .collect();
    assert!(
        got == want,
        "outputs or ledgers differ from the golden table; current table:\n{table}"
    );
}
