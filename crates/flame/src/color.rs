//! Color semantics (paper §VI-B): hues encode provenance (module/file),
//! darkness encodes source-mapping availability.

/// An sRGB color.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Color {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Color {
    /// Builds a color from channels.
    pub const fn new(r: u8, g: u8, b: u8) -> Color {
        Color { r, g, b }
    }

    /// CSS hex form (`#rrggbb`).
    pub fn to_hex(self) -> String {
        let mut hex = String::with_capacity(7);
        self.write_hex(&mut hex);
        hex
    }

    /// Appends the CSS hex form (`#rrggbb`) to `out`, which needs no
    /// JSON escape, without allocating a string per color.
    pub fn write_hex(self, out: &mut String) {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        out.push('#');
        for channel in [self.r, self.g, self.b] {
            out.push(char::from(DIGITS[usize::from(channel >> 4)]));
            out.push(char::from(DIGITS[usize::from(channel & 0xf)]));
        }
    }

    /// Scales all channels by `factor` (clamped to [0, 1]), darkening
    /// the color — used for frames without source mapping.
    pub fn darken(self, factor: f64) -> Color {
        let f = factor.clamp(0.0, 1.0);
        Color {
            r: (f64::from(self.r) * f) as u8,
            g: (f64::from(self.g) * f) as u8,
            b: (f64::from(self.b) * f) as u8,
        }
    }

    /// Linear interpolation toward `other`.
    pub fn lerp(self, other: Color, t: f64) -> Color {
        let t = t.clamp(0.0, 1.0);
        let mix = |a: u8, b: u8| (f64::from(a) + (f64::from(b) - f64::from(a)) * t) as u8;
        Color {
            r: mix(self.r, other.r),
            g: mix(self.g, other.g),
            b: mix(self.b, other.b),
        }
    }
}

/// How frames are colored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ColorScheme {
    /// Classic flame-graph warm palette, hue hashed from the function
    /// name (stable across runs).
    #[default]
    Warm,
    /// One hue per load module — "different colors to represent profiles
    /// from different files or libraries".
    ByModule,
    /// One hue per source file.
    ByFile,
}

/// FNV-1a, for stable name → hue hashing.
fn fnv1a(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// HSL → RGB for h in [0, 360), s/l in [0, 1].
fn hsl(h: f64, s: f64, l: f64) -> Color {
    let c = (1.0 - (2.0 * l - 1.0).abs()) * s;
    let hp = h / 60.0;
    let x = c * (1.0 - (hp % 2.0 - 1.0).abs());
    let (r1, g1, b1) = match hp as u32 {
        0 => (c, x, 0.0),
        1 => (x, c, 0.0),
        2 => (0.0, c, x),
        3 => (0.0, x, c),
        4 => (x, 0.0, c),
        _ => (c, 0.0, x),
    };
    let m = l - c / 2.0;
    Color {
        r: ((r1 + m) * 255.0) as u8,
        g: ((g1 + m) * 255.0) as u8,
        b: ((b1 + m) * 255.0) as u8,
    }
}

impl ColorScheme {
    /// The color for a frame with function `name`, load `module` and
    /// source `file`; `mapped` says whether it has file/line mapping.
    /// Frames lacking source mapping are rendered darker (the paper's
    /// "darkness to represent the availability of source line mapping").
    pub fn color_for(self, name: &str, module: &str, file: &str, mapped: bool) -> Color {
        let base = match self {
            ColorScheme::Warm => {
                // Warm hues: 0–55° (red → yellow).
                let hue = (fnv1a(name) % 56) as f64;
                hsl(hue, 0.85, 0.55)
            }
            ColorScheme::ByModule => {
                let hue = (fnv1a(module) % 360) as f64;
                hsl(hue, 0.6, 0.55)
            }
            ColorScheme::ByFile => {
                let hue = (fnv1a(file) % 360) as f64;
                hsl(hue, 0.6, 0.55)
            }
        };
        if mapped {
            base
        } else {
            base.darken(0.6)
        }
    }
}

/// The diff palette: blue for improvements, red for regressions,
/// saturated by magnitude (`intensity` in [0, 1]).
pub fn diff_color(delta: f64, intensity: f64) -> Color {
    let neutral = Color::new(0xe8, 0xe8, 0xe8);
    if delta > 0.0 {
        neutral.lerp(Color::new(0xd0, 0x30, 0x20), intensity)
    } else if delta < 0.0 {
        neutral.lerp(Color::new(0x20, 0x50, 0xd0), intensity)
    } else {
        neutral
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev_core::Frame;

    /// [`ColorScheme::color_for`] on a [`Frame`]'s parts.
    fn color_of(scheme: ColorScheme, frame: &Frame) -> Color {
        scheme.color_for(
            &frame.name,
            &frame.module,
            &frame.file,
            frame.has_source_mapping(),
        )
    }

    #[test]
    fn hex_formatting() {
        assert_eq!(Color::new(255, 0, 16).to_hex(), "#ff0010");
        assert_eq!(Color::new(0, 0, 0).to_hex(), "#000000");
    }

    #[test]
    fn hex_matches_format_at_channel_boundaries() {
        let edges = [0u8, 1, 9, 10, 15, 16, 127, 128, 159, 160, 254, 255];
        for &r in &edges {
            for &g in &edges {
                for &b in &edges {
                    let c = Color::new(r, g, b);
                    assert_eq!(c.to_hex(), format!("#{r:02x}{g:02x}{b:02x}"));
                }
            }
        }
    }

    #[test]
    fn darken_scales_channels() {
        let c = Color::new(200, 100, 50).darken(0.5);
        assert_eq!((c.r, c.g, c.b), (100, 50, 25));
        // Clamped factor.
        let c = Color::new(10, 10, 10).darken(2.0);
        assert_eq!((c.r, c.g, c.b), (10, 10, 10));
    }

    #[test]
    fn lerp_endpoints() {
        let a = Color::new(0, 0, 0);
        let b = Color::new(200, 100, 50);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        let mid = a.lerp(b, 0.5);
        assert_eq!((mid.r, mid.g, mid.b), (100, 50, 25));
    }

    #[test]
    fn stable_colors_per_name() {
        let f1 = Frame::function("alpha").with_source("a.c", 1);
        let f2 = Frame::function("alpha").with_source("a.c", 1);
        let f3 = Frame::function("beta").with_source("a.c", 1);
        assert_eq!(
            color_of(ColorScheme::Warm, &f1),
            color_of(ColorScheme::Warm, &f2)
        );
        assert_ne!(
            color_of(ColorScheme::Warm, &f1),
            color_of(ColorScheme::Warm, &f3)
        );
    }

    #[test]
    fn module_scheme_groups_by_module() {
        let a = Frame::function("x").with_module("libc.so").with_source("a.c", 1);
        let b = Frame::function("y").with_module("libc.so").with_source("b.c", 2);
        let c = Frame::function("x").with_module("app").with_source("a.c", 1);
        assert_eq!(
            color_of(ColorScheme::ByModule, &a),
            color_of(ColorScheme::ByModule, &b)
        );
        assert_ne!(
            color_of(ColorScheme::ByModule, &a),
            color_of(ColorScheme::ByModule, &c)
        );
    }

    #[test]
    fn unmapped_frames_are_darker() {
        let mapped = Frame::function("f").with_source("a.c", 1);
        let unmapped = Frame::function("f");
        let cm = color_of(ColorScheme::Warm, &mapped);
        let cu = color_of(ColorScheme::Warm, &unmapped);
        let luma = |c: Color| u32::from(c.r) + u32::from(c.g) + u32::from(c.b);
        assert!(luma(cu) < luma(cm));
    }

    #[test]
    fn diff_colors_by_sign() {
        let up = diff_color(5.0, 1.0);
        let down = diff_color(-5.0, 1.0);
        let zero = diff_color(0.0, 1.0);
        assert!(up.r > up.b, "regressions are red");
        assert!(down.b > down.r, "improvements are blue");
        assert_eq!(zero, Color::new(0xe8, 0xe8, 0xe8));
    }
}
