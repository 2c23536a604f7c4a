"""Buffer geometry."""

from repro.hw.memory import BufferConfig


class TestBufferConfig:
    def test_default_is_mfdfp_widths(self):
        c = BufferConfig()
        assert c.input_bits == 8
        assert c.weight_bits == 4

    def test_total_bits(self):
        c = BufferConfig(input_words=10, output_words=20, weight_words=30,
                         input_bits=8, output_bits=8, weight_bits=4)
        assert c.total_bits == 10 * 8 + 20 * 8 + 30 * 4

    def test_scaled_to_fp32_is_wider(self):
        base = BufferConfig()
        fp = base.scaled_to_precision(activation_bits=32, weight_bits=32)
        assert fp.input_words == base.input_words  # geometry unchanged
        assert fp.total_bits > base.total_bits

    def test_fp32_vs_mfdfp_bit_ratio(self):
        """Activations 4x wider, weights 8x wider."""
        base = BufferConfig(input_words=100, output_words=100, weight_words=100)
        fp = base.scaled_to_precision(32, 32)
        act_bits = 200 * 8
        w_bits = 100 * 4
        assert fp.total_bits == act_bits * 4 + w_bits * 8

    def test_kbytes(self):
        c = BufferConfig(input_words=1024, output_words=0, weight_words=0, input_bits=8)
        assert c.total_kbytes == 1.0

