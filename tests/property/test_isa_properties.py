"""Property-based tests for the microcode encoding (hypothesis)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.isa import (
    COMMAND_BITS,
    DATA_MASK,
    FIELD_MASK,
    Command,
    JumpCondition,
    Opcode,
    decode_command,
    encode_command,
)

opcodes = st.sampled_from(list(Opcode))
fields = st.integers(min_value=0, max_value=FIELD_MASK)
data_words = st.integers(min_value=0, max_value=DATA_MASK)
commands = st.builds(Command, opcode=opcodes, field=fields, data=data_words)


class TestEncodingProperties:
    @given(commands)
    def test_roundtrip_is_lossless(self, command):
        assert decode_command(encode_command(command)) == command

    @given(commands)
    def test_encoding_fits_in_48_bits(self, command):
        encoded = encode_command(command)
        assert 0 <= encoded < (1 << COMMAND_BITS)

    @given(commands, commands)
    def test_encoding_is_injective(self, first, second):
        if first != second:
            assert encode_command(first) != encode_command(second)

    @given(fields, data_words)
    def test_byte_offset_is_word_aligned(self, field, data):
        command = Command(Opcode.WRITE, field=field, data=data)
        assert command.byte_offset % 4 == 0
        assert command.byte_offset == 4 * command.word_offset

    @given(
        st.integers(min_value=0, max_value=63),
        st.sampled_from(list(JumpCondition)),
        data_words,
    )
    def test_jump_if_fields_roundtrip(self, target, condition, operand):
        command = Command.jump_if(target, condition, operand)
        decoded = decode_command(encode_command(command))
        assert decoded.jump_target == target
        assert decoded.jump_condition is condition
        assert decoded.data == operand

    @given(st.integers(min_value=0, max_value=15), data_words, st.booleans())
    def test_action_fields_roundtrip(self, group, mask, toggle):
        command = Command.action(group, mask, toggle=toggle)
        decoded = decode_command(encode_command(command))
        assert decoded.action_group == group
        assert decoded.action_is_toggle is toggle
        assert decoded.data == mask


class TestJumpConditionProperties:
    @given(data_words, data_words)
    def test_gt_le_are_complementary(self, captured, operand):
        assert JumpCondition.GT.evaluate(captured, operand) != JumpCondition.LE.evaluate(captured, operand)

    @given(data_words, data_words)
    def test_eq_ne_are_complementary(self, captured, operand):
        assert JumpCondition.EQ.evaluate(captured, operand) != JumpCondition.NE.evaluate(captured, operand)

    @given(data_words, data_words)
    def test_always_is_always_true(self, captured, operand):
        assert JumpCondition.ALWAYS.evaluate(captured, operand)
