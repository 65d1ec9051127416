//! MiniLM architecture configuration.

/// Size and regularization of a [`crate::MiniLm`].
#[derive(Clone, Debug, PartialEq)]
pub struct MiniLmConfig {
    /// Token vocabulary size (from the shared [`delrec_data::Vocab`]).
    pub vocab_size: usize,
    /// Model width.
    pub d_model: usize,
    /// Encoder blocks.
    pub num_layers: usize,
    /// Attention heads per block.
    pub num_heads: usize,
    /// Feed-forward hidden width.
    pub ffn_dim: usize,
    /// Maximum input length (prompt tokens incl. soft prompts and mask).
    pub max_len: usize,
    /// Dropout rate during training.
    pub dropout: f32,
}

impl MiniLmConfig {
    /// The Flan-T5-XL stand-in: the larger backbone used by default.
    pub fn xl(vocab_size: usize) -> Self {
        MiniLmConfig {
            vocab_size,
            d_model: 32,
            num_layers: 2,
            num_heads: 2,
            ffn_dim: 64,
            max_len: 256,
            dropout: 0.1,
        }
    }

    /// The Flan-T5-Large stand-in: smaller, for the "w Flan-T5-Large"
    /// ablation (Table IV) — strictly lower capacity than [`Self::xl`].
    pub fn large(vocab_size: usize) -> Self {
        MiniLmConfig {
            vocab_size,
            d_model: 16,
            num_layers: 1,
            num_heads: 2,
            ffn_dim: 32,
            max_len: 256,
            dropout: 0.1,
        }
    }

    /// Approximate parameter count (embeddings + blocks + head bias).
    pub fn approx_params(&self) -> usize {
        let emb = self.vocab_size * self.d_model + self.max_len * self.d_model;
        let per_block = 4 * self.d_model * self.d_model // q,k,v,o
            + 2 * self.d_model * self.ffn_dim
            + self.ffn_dim
            + self.d_model
            + 4 * self.d_model; // layer norms
        emb + self.num_layers * per_block + self.vocab_size + 2 * self.d_model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xl_is_strictly_larger_than_large() {
        let xl = MiniLmConfig::xl(1000);
        let large = MiniLmConfig::large(1000);
        assert!(xl.approx_params() > large.approx_params());
        assert!(xl.d_model > large.d_model);
        assert!(xl.num_layers >= large.num_layers);
    }

    #[test]
    fn heads_divide_width() {
        for cfg in [MiniLmConfig::xl(100), MiniLmConfig::large(100)] {
            assert_eq!(cfg.d_model % cfg.num_heads, 0);
        }
    }
}
